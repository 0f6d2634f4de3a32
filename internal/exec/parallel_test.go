package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// vagueRel mixes the narrow values of randomRel with a fraction of very
// wide supports (the paper's closing caveat: temporal-database-sized
// intervals), which keep dangling tuples inside Rng(r) and force the
// cut finder to widen its cuts past long runs of overlapping intervals.
func vagueRel(name string, n int, span float64, vagueEvery int, rng *rand.Rand) *frel.Relation {
	r := randomRel(name, n, span, 4, rng)
	if vagueEvery <= 0 {
		return r
	}
	xi, _ := r.Schema.Resolve("X")
	for i := range r.Tuples {
		if i%vagueEvery == 0 {
			c := r.Tuples[i].Values[xi].Num.Centroid()
			w := span * (0.05 + rng.Float64()*0.3)
			r.Tuples[i].Values[xi] = frel.Num(fuzzy.Tri(c-w, c, c+w))
		}
	}
	return r
}

// identicalSequences requires the two relations to hold the same tuples in
// the same order with degrees equal to within tol.
func identicalSequences(t *testing.T, serial, parallel *frel.Relation, tol float64) {
	t.Helper()
	if serial.Len() != parallel.Len() {
		t.Fatalf("serial emitted %d tuples, parallel %d", serial.Len(), parallel.Len())
	}
	for i := range serial.Tuples {
		st, pt := serial.Tuples[i], parallel.Tuples[i]
		if st.Key() != pt.Key() {
			t.Fatalf("tuple %d: serial %v, parallel %v", i, st, pt)
		}
		if math.Abs(st.D-pt.D) > tol {
			t.Fatalf("tuple %d: serial degree %g, parallel %g", i, st.D, pt.D)
		}
	}
}

// morselJoin builds the merge-join with the given tolerance, interpreted
// residual, worker count and counters/stats sinks.
func morselJoin(t *testing.T, r, s *frel.Relation, tol fuzzy.Trapezoid, residual JoinPred, workers int, c *Counters, st *OpStats) *KernelMergeJoin {
	t.Helper()
	mj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", tol, nil, c, workers)
	if err != nil {
		t.Fatal(err)
	}
	mj.Residual = residual
	mj.Stats = st
	return mj
}

// TestParallelMergeJoinEquivalence is the randomized property test: over
// workloads with narrow, wide-interval, and dangling tuples, the
// morsel-scheduled merge-join must return the identical fuzzy relation —
// same tuples, same emission order, bit-identical degrees — at every
// worker count, with identical degree evaluations, output counts and
// EXPLAIN ANALYZE stats. Counters.Comparisons, which also counts the
// dangling tuples of each window, is equal too: the window empties at
// every atomic cut, wherever a morsel starts.
func TestParallelMergeJoinEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		span       float64
		vagueEvery int // 0 = narrow values only
	}{
		{"narrow", 600, 4000, 0},
		{"clustered", 250, 200, 0}, // heavy overlap, few morsels
		{"vague10", 600, 4000, 10},
		{"vague3", 200, 1000, 3}, // wide intervals dominate
		{"tiny", 7, 50, 2},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := vagueRel("R", tc.n, tc.span, tc.vagueEvery, rng)
				s := vagueRel("S", tc.n+rng.Intn(100), tc.span, tc.vagueEvery, rng)
				var sc Counters
				ss := NewOpStats("merge-join", "")
				serial := drain(t, morselJoin(t, r, s, fuzzy.Crisp(0), nil, 1, &sc, ss))
				for _, workers := range []int{2, 3, 8} {
					var pc Counters
					ps := NewOpStats("merge-join", "")
					identicalSequences(t, serial, drain(t, morselJoin(t, r, s, fuzzy.Crisp(0), nil, workers, &pc, ps)), 0)
					sameCounters(t, fmt.Sprintf("workers=%d", workers), &pc, &sc)
					if pc.Comparisons.Load() < pc.DegreeEvals.Load() {
						t.Errorf("workers=%d: comparisons %d below degree evals %d",
							workers, pc.Comparisons.Load(), pc.DegreeEvals.Load())
					}
					sameStats(t, fmt.Sprintf("workers=%d", workers), ps, ss)
				}
			})
		}
	}
}

// TestParallelBandMergeJoinEquivalence repeats the property under an
// asymmetric band tolerance, which shifts the inner intervals the
// cut finder must widen cuts around.
func TestParallelBandMergeJoinEquivalence(t *testing.T) {
	tols := []fuzzy.Trapezoid{
		fuzzy.Tri(-5, 0, 5),
		fuzzy.Trap(-8, -2, 1, 12), // asymmetric: shifts Rng(r) off-centre
	}
	for ti, tol := range tols {
		for seed := int64(10); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("tol=%d/seed=%d", ti, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := vagueRel("R", 400, 1600, 8, rng)
				s := vagueRel("S", 430, 1600, 8, rng)
				serial := drain(t, morselJoin(t, r, s, tol, nil, 1, nil, nil))
				for _, workers := range []int{2, 5} {
					identicalSequences(t, serial, drain(t, morselJoin(t, r, s, tol, nil, workers, nil, nil)), 0)
				}
			})
		}
	}
}

// TestParallelMergeJoinExtraPred checks that an interpreted residual
// predicate (the second predicate of an unnested type J query) survives
// morsel scheduling.
func TestParallelMergeJoinExtraPred(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := vagueRel("R", 300, 1000, 6, rng)
	s := vagueRel("S", 300, 1000, 6, rng)
	ri, _ := r.Schema.Resolve("ID")
	si, _ := s.Schema.Resolve("ID")
	extra := func(l, m frel.Tuple) float64 {
		// An arbitrary deterministic degree depending on both sides.
		return fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num)/2 + 0.5
	}
	serial := drain(t, morselJoin(t, r, s, fuzzy.Crisp(0), extra, 1, nil, nil))
	identicalSequences(t, serial, drain(t, morselJoin(t, r, s, fuzzy.Crisp(0), extra, 4, nil, nil)), 0)
}

// TestAtomicCutsIndependence verifies the morsel invariant directly: no
// (outer, inner) pair whose supports intersect (after band widening) may
// straddle a cut.
func TestAtomicCutsIndependence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := vagueRel("R", 120, 600, 7, rng)
		s := vagueRel("S", 140, 600, 7, rng)
		tol := fuzzy.Trap(-4, -1, 2, 6)
		rs := sortedSource(t, r, "X").(*MemSource).Rel
		ss := sortedSource(t, s, "X").(*MemSource).Rel
		oi, _ := rs.Schema.Resolve("X")
		ii, _ := ss.Schema.Resolve("X")
		ranges := atomicCutsKeyed(frel.SupportKeys(rs.Tuples, oi), frel.SupportKeys(ss.Tuples, ii), tol)
		// Ranges must tile both inputs in order.
		po, pi := 0, 0
		for _, p := range ranges {
			if p.oLo != po || p.iLo != pi {
				t.Fatalf("ranges do not tile: %+v after (%d,%d)", p, po, pi)
			}
			po, pi = p.oHi, p.iHi
		}
		if po != rs.Len() || pi != ss.Len() {
			t.Fatalf("ranges end at (%d,%d), want (%d,%d)", po, pi, rs.Len(), ss.Len())
		}
		outerPart := make([]int, rs.Len())
		innerPart := make([]int, ss.Len())
		for pn, p := range ranges {
			for i := p.oLo; i < p.oHi; i++ {
				outerPart[i] = pn
			}
			for i := p.iLo; i < p.iHi; i++ {
				innerPart[i] = pn
			}
		}
		for i, l := range rs.Tuples {
			for j, m := range ss.Tuples {
				shifted := fuzzy.Add(m.Values[ii].Num, tol)
				if l.Values[oi].Num.Intersects(shifted) && outerPart[i] != innerPart[j] {
					t.Fatalf("seed %d: intersecting pair (%d,%d) split across ranges %d/%d",
						seed, i, j, outerPart[i], innerPart[j])
				}
			}
		}
	}
}

// TestParallelMergeJoinUnsortedInput: the materializing open must reject
// inputs that violate the Definition 3.1 order at any worker count.
func TestParallelMergeJoinUnsortedInput(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(5)))
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(7)))
	pj, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(s), "R.X", "S.X",
		fuzzy.Crisp(0), nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pj.Open(); err == nil {
		t.Fatal("unsorted outer input: want error")
	}
}
