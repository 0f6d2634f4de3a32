package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// pairExtras builds the residual conjuncts for the merge-join parity
// tests in both forms: a compiled PairProgram and the equivalent
// interpreted JoinPred with the andJoinPreds evaluation order, charging
// DegreeEvals per conjunct call exactly like the compiled join-predicate
// closures do.
func pairExtras(t testing.TB, c *Counters) (*kernel.PairProgram, JoinPred) {
	t.Helper()
	konst := frel.Num(fuzzy.Tri(10, 30, 50))
	pp, err := kernel.CompilePair([]kernel.PairStep{
		{Kind: kernel.StepCompare, Op: fuzzy.OpLe,
			Left: kernel.LeftColumn(0), Right: kernel.RightColumn(0)},
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.LeftColumn(1), Right: kernel.PairConstant(konst)},
	})
	if err != nil {
		t.Fatal(err)
	}
	preds := []JoinPred{
		func(l, r frel.Tuple) float64 {
			c.DegreeEvals.Add(1)
			return frel.Degree(fuzzy.OpLe, l.Values[0], r.Values[0])
		},
		func(l, r frel.Tuple) float64 {
			c.DegreeEvals.Add(1)
			return frel.Degree(fuzzy.OpGt, l.Values[1], konst)
		},
	}
	interp := func(l, r frel.Tuple) float64 {
		d := 1.0
		for _, p := range preds {
			if g := p(l, r); g < d {
				d = g
				if d == 0 {
					return 0
				}
			}
		}
		return d
	}
	return pp, interp
}

// TestKernelMergeJoinMatchesInterpreted cross-checks the two residual
// arms of the merge-join on random inputs: residual conjuncts compiled
// into a PairProgram against the same conjuncts as an interpreted
// JoinPred — identical output sequences, work counters and EXPLAIN
// ANALYZE stats at every worker count, with and without residuals.
func TestKernelMergeJoinMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tols := []fuzzy.Trapezoid{fuzzy.Crisp(0), fuzzy.Tri(-3, 0, 3), fuzzy.Trap(-5, -2, 2, 5)}
	for _, workers := range []int{1, 2, 4} {
		for _, withExtra := range []bool{false, true} {
			for trial := 0; trial < 6; trial++ {
				r := randomRel("R", 80+rng.Intn(120), 80, 6, rng)
				s := randomRel("S", 80+rng.Intn(120), 80, 6, rng)
				tol := tols[trial%len(tols)]

				var ck Counters
				sk := NewOpStats("merge-join", "")
				var pp *kernel.PairProgram
				if withExtra {
					pp, _ = pairExtras(t, &ck)
				}
				kj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
					"R.X", "S.X", tol, pp, &ck, workers)
				if err != nil {
					t.Fatal(err)
				}
				kj.Stats = sk
				got := batchDrain(t, kj)

				var ci Counters
				si := NewOpStats("merge-join", "")
				ij, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
					"R.X", "S.X", tol, nil, &ci, workers)
				if err != nil {
					t.Fatal(err)
				}
				if withExtra {
					_, ij.Residual = pairExtras(t, &ci)
				}
				ij.Stats = si
				want := batchDrain(t, ij)

				name := "kernel merge-join"
				sameSequence(t, name, got, want)
				sameCounters(t, name, &ck, &ci)
				sameStats(t, name, sk, si)
				if ck.Morsels.Load() == 0 {
					t.Errorf("%s: no morsels recorded", name)
				}
				if ck.KernelTuples.Load() != int64(r.Len()) {
					t.Errorf("%s: KernelTuples %d, want %d", name, ck.KernelTuples.Load(), r.Len())
				}
			}
		}
	}
}

// TestKernelMergeJoinProjected checks the projection-pushdown emit of the
// merge-join, with and without duplicate elimination, against the
// join-then-project pipeline (a stats wrapper around the join disables
// the pushdown).
func TestKernelMergeJoinProjected(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dedup := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			r := randomRel("R", 100+rng.Intn(100), 60, 5, rng)
			s := randomRel("S", 100+rng.Intn(100), 60, 5, rng)
			build := func() *KernelMergeJoin {
				kj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"),
					"R.X", "S.X", fuzzy.Crisp(0), nil, nil, 3)
				if err != nil {
					t.Fatal(err)
				}
				return kj
			}
			kproj, err := NewProject(build(), []string{"R.ID", "S.ID"}, dedup)
			if err != nil {
				t.Fatal(err)
			}
			got := batchDrain(t, kproj)

			iproj, err := NewProject(NewStated(build(), NewOpStats("merge-join", "")), []string{"R.ID", "S.ID"}, dedup)
			if err != nil {
				t.Fatal(err)
			}
			want := batchDrain(t, iproj)
			sameSequence(t, "kernel projected join", got, want)
		}
	}
}

// TestKernelMergeJoinEmptySides covers empty inputs: the join must not
// emit or evaluate anything, and each outer tuple records one empty
// Rng(r) observation.
func TestKernelMergeJoinEmptySides(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRel("R", 40, 30, 3, rng)
	empty := frel.NewRelation(xSchema("S"))
	for _, flip := range []bool{false, true} {
		outer, inner, oa, ia := r, empty, "R.X", "S.X"
		if flip {
			outer, inner, oa, ia = empty, r, "S.X", "R.X"
		}
		var c Counters
		st := NewOpStats("merge-join", "")
		kj, err := NewKernelMergeJoin(sortedSource(t, outer, "X"), sortedSource(t, inner, "X"),
			oa, ia, fuzzy.Crisp(0), nil, &c, 2)
		if err != nil {
			t.Fatal(err)
		}
		kj.Stats = st
		if got := batchDrain(t, kj); len(got) != 0 {
			t.Fatalf("flip=%v: empty-side join emitted %d tuples", flip, len(got))
		}
		if c.Comparisons.Load() != 0 || c.DegreeEvals.Load() != 0 || c.TuplesOut.Load() != 0 {
			t.Errorf("flip=%v: counters cmp/deg/out %d/%d/%d, want zero", flip,
				c.Comparisons.Load(), c.DegreeEvals.Load(), c.TuplesOut.Load())
		}
		snap := st.Snapshot()
		if snap.RngCount != int64(outer.Len()) || snap.RngMax != 0 || snap.Comparisons != 0 {
			t.Errorf("flip=%v: stats rng n=%d max=%d cmp=%d, want n=%d max=0 cmp=0", flip,
				snap.RngCount, snap.RngMax, snap.Comparisons, outer.Len())
		}
	}
}

// TestMorselGrain pins the grain policy: serial runs get one morsel,
// parallel runs a bounded number of small ones.
func TestMorselGrain(t *testing.T) {
	if g := morselGrain(10000, 1); g <= 10000 {
		t.Errorf("serial grain %d must exceed the total weight", g)
	}
	if g := morselGrain(10000, 0); g <= 10000 {
		t.Errorf("grain for workers=0 is %d, want one morsel", g)
	}
	if g := morselGrain(100000, 4); g != 100000/(4*16) {
		t.Errorf("parallel grain = %d, want %d", g, 100000/(4*16))
	}
	if g := morselGrain(100, 4); g != 256 {
		t.Errorf("small-input grain = %d, want the 256 floor", g)
	}
}
