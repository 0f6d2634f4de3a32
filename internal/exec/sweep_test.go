package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// notInPenalty is the JX penalty 1 − min(µS(s), d(r.X = s.X)) over
// relations of xSchema.
func notInPenalty(r, s *frel.Relation) JoinPred {
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	return func(l, m frel.Tuple) float64 {
		return 1 - fuzzy.Min(m.D, fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num))
	}
}

// asCorrelated re-labels an xSchema relation for the group-aggregate
// join: X becomes the correlation attribute (U outside, V inside) and ID
// the compared or aggregated one (Y outside, Z inside).
func asCorrelated(r *frel.Relation, outer bool) *frel.Relation {
	schema := innerSchema()
	if outer {
		schema = outerSchema()
	}
	out := frel.NewRelation(schema)
	for _, t := range r.Tuples {
		out.Append(frel.NewTuple(t.D, t.Values[1], t.Values[0]))
	}
	return out
}

// TestParallelAntiMinGroupAggEquivalence: the group-minimum anti-join and
// the group-aggregate join run on the merge-join's morsel sweep, so over
// wide supports and dangling tuples they too must return the reference
// answer as the identical tuple sequence with bit-identical degrees, and
// identical work counters and EXPLAIN ANALYZE stats, at every worker
// count.
func TestParallelAntiMinGroupAggEquivalence(t *testing.T) {
	aggs := []struct {
		agg fuzzy.AggFunc
		op1 fuzzy.Op
	}{{fuzzy.AggCount, fuzzy.OpGt}, {fuzzy.AggMax, fuzzy.OpLe}}
	for _, vagueEvery := range []int{0, 10, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("vague=%d/seed=%d", vagueEvery, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := vagueRel("R", 500, 3000, vagueEvery, rng)
				s := vagueRel("S", 550, 3000, vagueEvery, rng)
				// Runs of identical outer values: the group-aggregate
				// join builds T′(u) once per run.
				for i := 1; i < r.Len(); i += 4 {
					r.Tuples[i].Values[1] = r.Tuples[i-1].Values[1]
				}
				ru, sv := asCorrelated(r, true), asCorrelated(s, false)

				anti := func(workers int) (*frel.Relation, *Counters, *OpStats) {
					var c Counters
					st := NewOpStats("merge-anti-join", "")
					op, err := NewMergeAntiMin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", notInPenalty(r, s), &c, workers)
					if err != nil {
						t.Fatal(err)
					}
					op.Stats = st
					return drain(t, op), &c, st
				}
				group := func(agg fuzzy.AggFunc, op1 fuzzy.Op, workers int) (*frel.Relation, *Counters, *OpStats) {
					var c Counters
					st := NewOpStats("group-agg-join", "")
					op, err := NewGroupAggJoin(totalSortedSource(t, ru, "U"), sortedSource(t, sv, "V"),
						"R.U", "S.V", fuzzy.OpEq, "S.Z", agg, "R.Y", op1, &c, workers)
					if err != nil {
						t.Fatal(err)
					}
					op.Stats = st
					return drain(t, op), &c, st
				}

				serial, sc, ss := anti(1)
				if want := bruteNotIn(r, s); !serial.Equal(want, 0) {
					t.Fatalf("anti-join: got %d tuples, want %d", serial.Len(), want.Len())
				}
				for _, workers := range []int{2, 4} {
					got, pc, ps := anti(workers)
					name := fmt.Sprintf("anti-join workers=%d", workers)
					identicalSequences(t, serial, got, 0)
					sameCounters(t, name, pc, sc)
					sameStats(t, name, ps, ss)
				}
				for _, a := range aggs {
					serial, sc, ss := group(a.agg, a.op1, 1)
					if serial.Len() == 0 {
						t.Fatalf("%v: empty answer proves nothing", a.agg)
					}
					if want := bruteJA(ru, sv, a.agg, a.op1, fuzzy.OpEq); !serial.Equal(want, 0) {
						t.Fatalf("%v: got %d tuples, want %d", a.agg, serial.Len(), want.Len())
					}
					for _, workers := range []int{2, 4} {
						got, pc, ps := group(a.agg, a.op1, workers)
						name := fmt.Sprintf("%v workers=%d", a.agg, workers)
						identicalSequences(t, serial, got, 0)
						sameCounters(t, name, pc, sc)
						sameStats(t, name, ps, ss)
					}
				}
			})
		}
	}
}

// trickleSource serves a relation one tuple per batch and counts the
// tuples it hands out, so a test can see exactly where a reader stopped.
type trickleSource struct {
	rel  *frel.Relation
	read int
}

func (s *trickleSource) Schema() *frel.Schema { return s.rel.Schema }

func (s *trickleSource) Open() (BatchIterator, error) { return &trickleIterator{s: s}, nil }

type trickleIterator struct {
	s *trickleSource
	i int
}

func (it *trickleIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.i >= it.s.rel.Len() {
		return nil, false
	}
	it.i++
	it.s.read++
	return it.s.rel.Tuples[it.i-1 : it.i], true
}

func (it *trickleIterator) Err() error { return nil }
func (it *trickleIterator) Close()     {}

// readsUpTo is the number of inner tuples a merge operator must read: up
// to and including the first whose support, shifted by lead, begins after
// the largest outer support end.
func readsUpTo(t *testing.T, outer, inner *frel.Relation, outerAttr, innerAttr string, lead float64) int {
	t.Helper()
	oi, _ := outer.Schema.Resolve(outerAttr)
	ii, _ := inner.Schema.Resolve(innerAttr)
	reach := math.Inf(-1)
	for _, l := range outer.Tuples {
		_, hi := l.Values[oi].Num.Support()
		reach = math.Max(reach, hi)
	}
	for k, m := range inner.Tuples {
		if lo, _ := m.Values[ii].Num.Support(); lo+lead > reach {
			return k + 1
		}
	}
	t.Fatal("the inner has no tail past the outer supports")
	return 0
}

// TestMergeOperatorsStopAtReach: an inner tuple whose (band-widened)
// support begins after every outer support ends lies in no Rng(r), and
// neither does any later one. All three merge operators must stop reading
// the inner at the first such tuple and still return the reference
// answer.
func TestMergeOperatorsStopAtReach(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withTail := func(s *frel.Relation, attr int) *frel.Relation {
		for i := 0; i < 50; i++ {
			m := s.Tuples[i%s.Len()]
			m.Values = append([]frel.Value(nil), m.Values...)
			m.Values[attr] = frel.Crisp(500 + float64(i))
			s.Append(m)
		}
		return s
	}
	r := randomRel("R", 60, 100, 3, rng)
	s := withTail(randomRel("S", 80, 100, 3, rng), 1)

	t.Run("merge-join", func(t *testing.T) {
		tol := fuzzy.Tri(-5, 0, 5)
		inner := &trickleSource{rel: sortedRel(t, s, "X")}
		mj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), inner, "R.X", "S.X", tol, nil, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := drain(t, mj), bruteBandJoin(r, s, tol); !got.Equal(want, 0) {
			t.Fatalf("got %d tuples, want %d", got.Len(), want.Len())
		}
		if want := readsUpTo(t, r, inner.rel, "X", "X", tol.A); inner.read != want {
			t.Errorf("read %d of %d inner tuples, want %d", inner.read, s.Len(), want)
		}
	})
	t.Run("anti-join", func(t *testing.T) {
		inner := &trickleSource{rel: sortedRel(t, s, "X")}
		op, err := NewMergeAntiMin(sortedSource(t, r, "X"), inner, "R.X", "S.X", notInPenalty(r, s), nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := drain(t, op), bruteNotIn(r, s); !got.Equal(want, 0) {
			t.Fatalf("got %d tuples, want %d", got.Len(), want.Len())
		}
		if want := readsUpTo(t, r, inner.rel, "X", "X", 0); inner.read != want {
			t.Errorf("read %d of %d inner tuples, want %d", inner.read, s.Len(), want)
		}
	})
	t.Run("group-agg-join", func(t *testing.T) {
		ru, sv := randomCorrelated(rng, 40, 60)
		sv = withTail(sv, 0)
		inner := &trickleSource{rel: sortedRel(t, sv, "V")}
		op, err := NewGroupAggJoin(totalSortedSource(t, ru, "U"), inner,
			"R.U", "S.V", fuzzy.OpEq, "S.Z", fuzzy.AggCount, "R.Y", fuzzy.OpGt, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := drain(t, op), bruteJA(ru, sv, fuzzy.AggCount, fuzzy.OpGt, fuzzy.OpEq); !got.Equal(want, 0) {
			t.Fatalf("got %d tuples, want %d", got.Len(), want.Len())
		}
		if want := readsUpTo(t, ru, inner.rel, "U", "V", 0); inner.read != want {
			t.Errorf("read %d of %d inner tuples, want %d", inner.read, sv.Len(), want)
		}
	})
}
