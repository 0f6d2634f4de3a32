package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// batchDrain drains src through the batch interface, copying every batch
// out (the reuse contract says batches die at the next NextBatch call).
func batchDrain(t testing.TB, src Source) []frel.Tuple {
	t.Helper()
	it, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []frel.Tuple
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		out = append(out, b...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameSequence requires the two drains to agree tuple for tuple, in
// order, values and degrees both.
func sameSequence(t *testing.T, name string, got, want []frel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].D != want[i].D {
			t.Fatalf("%s: tuple %d differs: got %v (d=%g), want %v (d=%g)",
				name, i, got[i].Values, got[i].D, want[i].Values, want[i].D)
		}
	}
}

// sameCounters requires the two executions to have recorded identical
// work counters.
func sameCounters(t *testing.T, name string, got, want *Counters) {
	t.Helper()
	if g, w := got.Comparisons.Load(), want.Comparisons.Load(); g != w {
		t.Errorf("%s: Comparisons %d, want %d", name, g, w)
	}
	if g, w := got.DegreeEvals.Load(), want.DegreeEvals.Load(); g != w {
		t.Errorf("%s: DegreeEvals %d, want %d", name, g, w)
	}
	if g, w := got.TuplesOut.Load(), want.TuplesOut.Load(); g != w {
		t.Errorf("%s: TuplesOut %d, want %d", name, g, w)
	}
}

// sameStats requires identical OpStats contents (the EXPLAIN ANALYZE
// contract: scheduling must not change any reported counter).
func sameStats(t *testing.T, name string, got, want *OpStats) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if g.Comparisons != w.Comparisons || g.DegreeEvals != w.DegreeEvals {
		t.Errorf("%s: stats cmp/deg %d/%d, want %d/%d",
			name, g.Comparisons, g.DegreeEvals, w.Comparisons, w.DegreeEvals)
	}
	if g.RngCount != w.RngCount || g.RngMin != w.RngMin || g.RngMax != w.RngMax ||
		g.RngAvg != w.RngAvg {
		t.Errorf("%s: stats Rng n=%d min=%d max=%d avg=%g, want n=%d min=%d max=%d avg=%g",
			name, g.RngCount, g.RngMin, g.RngMax, g.RngAvg, w.RngCount, w.RngMin, w.RngMax, w.RngAvg)
	}
}

// TestBatchMergeJoinExtraPredicate covers the interpreted residual arm of
// the merge-join: the answer equals the all-pairs join with the residual
// degree folded in, at every worker count, and the residual is charged
// one degree evaluation per pair it runs on.
func TestBatchMergeJoinExtraPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRel("R", 90, 40, 4, rng)
	s := randomRel("S", 90, 40, 4, rng)
	extra := func(l, m frel.Tuple) float64 {
		if int(l.Values[0].Num.B)%2 == int(m.Values[0].Num.B)%2 {
			return 0.7
		}
		return 0
	}
	want := frel.NewRelation(r.Schema.Join(s.Schema))
	var pairs int64
	for _, l := range bruteJoin(r, s).Tuples {
		pairs++
		if g := extra(l, frel.Tuple{Values: l.Values[len(r.Schema.Attrs):]}); g < l.D {
			l.D = g
		}
		if l.D > 0 {
			want.Append(l)
		}
	}
	for _, workers := range []int{1, 4} {
		var c Counters
		got := drain(t, equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", extra, &c, workers))
		if !got.Equal(want, 0) {
			t.Fatalf("workers %d: got %d tuples, want %d", workers, got.Len(), want.Len())
		}
		if c.TuplesOut.Load() != int64(want.Len()) {
			t.Errorf("workers %d: TuplesOut %d, want %d", workers, c.TuplesOut.Load(), want.Len())
		}
		if c.DegreeEvals.Load() < pairs {
			t.Errorf("workers %d: DegreeEvals %d below the %d joining pairs", workers, c.DegreeEvals.Load(), pairs)
		}
	}
}

// TestBatchKeyedSourceServesKeys checks that a KeyedMemSource serves its
// key column batch-aligned, and that the keys match the tuples' actual
// supports.
func TestBatchKeyedSourceServesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 2600, 100, 5, rng)
	xi, _ := r.Schema.Resolve("X")
	keys := frel.SupportKeys(r.Tuples, xi)
	it, err := NewKeyedMemSource(r, keys).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	kit, ok := it.(KeyedBatchIterator)
	if !ok {
		t.Fatal("keyed source iterator does not serve keys")
	}
	seen := 0
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		k := kit.Keys()
		if len(k) != len(b) {
			t.Fatalf("batch of %d tuples came with %d keys", len(b), len(k))
		}
		for i, tup := range b {
			lo, hi := tup.Values[xi].Num.Support()
			if k[i].Lo != lo || k[i].Hi != hi || k[i].D != tup.D {
				t.Fatalf("key %d = %+v, want lo=%g hi=%g d=%g", seen+i, k[i], lo, hi, tup.D)
			}
		}
		seen += len(b)
	}
	if seen != r.Len() {
		t.Fatalf("served %d tuples, want %d", seen, r.Len())
	}
}

// joinPipeline builds the scan -> filter -> merge-join pipeline the
// allocation test measures.
func joinPipeline(t testing.TB, r, s *frel.Relation) Source {
	t.Helper()
	pred := func(tp frel.Tuple) float64 { return 1 }
	mj, err := NewKernelMergeJoin(NewFilter(NewMemSource(r), pred), NewFilter(NewMemSource(s), pred),
		"R.X", "S.X", fuzzy.Crisp(0), nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Project the answer attribute, the paper's answer-construction shape.
	proj, err := NewProject(mj, []string{"R.ID"}, false)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// sortedRel returns a sorted clone (sorting once up front keeps the
// pipelines comparable and the allocation loop sort-free).
func sortedRel(t testing.TB, r *frel.Relation, attr string) *frel.Relation {
	t.Helper()
	c := r.Clone()
	if err := c.SortBy(attr); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchPipelineAllocs is the allocation-regression test for the
// batched scan -> filter -> merge-join pipeline: amortized allocations
// must stay at arena level (a handful per batch), far below one
// allocation per tuple. Skipped under -race, which inflates allocation
// counts.
func TestBatchPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(17))
	r := sortedRel(t, randomRel("R", 4000, 3000, 2, rng), "X")
	s := sortedRel(t, randomRel("S", 4000, 3000, 2, rng), "X")

	var rows int
	allocs := testing.AllocsPerRun(5, func() {
		it, err := joinPipeline(t, r, s).Open()
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			b, ok := it.NextBatch()
			if !ok {
				break
			}
			rows += len(b)
		}
		it.Close()
	})
	if rows == 0 {
		t.Fatal("pipeline produced no tuples")
	}
	perTuple := allocs / float64(rows)
	// Input materialization and geometrically grown output arenas plus
	// fixed setup; 0.1 allocs/tuple is an order of magnitude of headroom.
	if perTuple > 0.1 {
		t.Errorf("batched pipeline allocates %.3f allocs/tuple (%.0f allocs for %d tuples), want <= 0.1",
			perTuple, allocs, rows)
	}
}

// TestBatchHeapSourceAndSpill round-trips a relation through a temporary
// heap file and the batched heap scan: mem -> heap file -> batches must
// preserve the tuple sequence.
func TestBatchHeapSourceAndSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := randomRel("R", 3000, 1000, 2, rng)
	mgr := storage.NewManager(t.TempDir(), 8)
	h, err := mgr.CreateTemp(r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AppendAll(r); err != nil {
		t.Fatal(err)
	}
	defer h.Drop()
	got := batchDrain(t, NewHeapSource(h))
	sameSequence(t, "heap batches", got, r.Tuples)
}
