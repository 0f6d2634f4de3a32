package extsort

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

func xSchema() *frel.Schema {
	return frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
}

func fillRandom(t *testing.T, h *storage.HeapFile, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		center := rng.Float64() * 1000
		width := rng.Float64() * 10
		if err := h.Append(frel.NewTuple(1, frel.Num(fuzzy.Tri(center-width, center, center+width)))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSortSmall(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 3, 9, 1, 7} {
		if err := src.Append(frel.NewTuple(1, frel.Crisp(v))); err != nil {
			t.Fatal(err)
		}
	}
	order, err := ByAttr(src.Schema, "X")
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := NewSorter(m, 4).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 5 || st.Runs != 1 || st.MergePasses != 0 {
		t.Errorf("stats = %+v", st)
	}
	rel, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i, w := range want {
		if rel.Tuples[i].Values[0].Num.A != w {
			t.Errorf("tuple %d = %v, want %g", i, rel.Tuples[i], w)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	order, _ := ByAttr(src.Schema, "X")
	out, st, err := NewSorter(m, 4).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumTuples() != 0 || st.Tuples != 0 {
		t.Errorf("empty sort produced %d tuples", out.NumTuples())
	}
}

func TestSortExternalMultiRun(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	fillRandom(t, src, n, 42)
	order, _ := ByAttr(src.Schema, "X")
	// Tiny memory: forces many runs and at least one merge pass.
	out, st, err := NewSorter(m, 2).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 4 {
		t.Errorf("runs = %d, want several with a 2-page budget", st.Runs)
	}
	if st.MergePasses < 1 {
		t.Errorf("merge passes = %d, want >= 1", st.MergePasses)
	}
	if out.NumTuples() != n {
		t.Errorf("output tuples = %d, want %d", out.NumTuples(), n)
	}
	checkSorted(t, out)
}

func TestSortMultiPassMerge(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, src, 8000, 7)
	order, _ := ByAttr(src.Schema, "X")
	sorter := NewSorter(m, 2) // fan-in 2: log2(runs) passes
	out, st, err := sorter.Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergePasses < 2 {
		t.Errorf("merge passes = %d, want >= 2 with fan-in 2", st.MergePasses)
	}
	checkSorted(t, out)
}

// TestSortDefinition31Order verifies that the two-level comparison of
// Definition 3.1 is respected: equal begin points order by end points.
func TestSortDefinition31Order(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	ivals := []fuzzy.Trapezoid{
		fuzzy.Interval(30, 35),
		fuzzy.Interval(20, 35),
		fuzzy.Interval(20, 28),
		fuzzy.Interval(20, 30),
	}
	for _, iv := range ivals {
		if err := src.Append(frel.NewTuple(1, frel.Num(iv))); err != nil {
			t.Fatal(err)
		}
	}
	order, _ := ByAttr(src.Schema, "X")
	out, _, err := NewSorter(m, 4).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := out.ReadAll()
	want := []fuzzy.Trapezoid{
		fuzzy.Interval(20, 28),
		fuzzy.Interval(20, 30),
		fuzzy.Interval(20, 35),
		fuzzy.Interval(30, 35),
	}
	for i, w := range want {
		if rel.Tuples[i].Values[0].Num != w {
			t.Errorf("tuple %d = %v, want %v", i, rel.Tuples[i].Values[0], w)
		}
	}
}

// TestSortStable: duplicates keep their input order (needed so degrees of
// identical join values are deterministic).
func TestSortStable(t *testing.T) {
	schema := frel.NewSchema("R",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "TAG", Kind: frel.KindString},
	)
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"a", "b", "c", "d"}
	for _, tag := range tags {
		if err := src.Append(frel.NewTuple(1, frel.Crisp(5), frel.Str(tag))); err != nil {
			t.Fatal(err)
		}
	}
	order, _ := ByAttr(schema, "X")
	out, _, err := NewSorter(m, 4).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := out.ReadAll()
	for i, tag := range tags {
		if rel.Tuples[i].Values[1].Str != tag {
			t.Errorf("tuple %d tag = %q, want %q", i, rel.Tuples[i].Values[1].Str, tag)
		}
	}
}

func TestSortPreservesDegreesAndValues(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 16)
	src, err := m.CreateHeap("src", xSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := frel.NewRelation(xSchema())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		tup := frel.NewTuple(rng.Float64()*0.99+0.01, frel.Crisp(rng.Float64()*100))
		want.Append(tup)
		if err := src.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	order, _ := ByAttr(src.Schema, "X")
	out, _, err := NewSorter(m, 2).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Errorf("sort changed the multiset of tuples")
	}
}

func TestByAttrUnknown(t *testing.T) {
	if _, err := ByAttr(xSchema(), "NOPE"); err == nil {
		t.Errorf("ByAttr(NOPE): want error")
	}
}

func TestSortRelationInMemory(t *testing.T) {
	r := frel.NewRelation(xSchema())
	for _, v := range []float64{3, 1, 2} {
		r.Append(frel.NewTuple(1, frel.Crisp(v)))
	}
	order, _ := ByAttr(r.Schema, "X")
	var comps int64
	r.Tuples, comps = SortTuples(r.Tuples, order)
	if comps <= 0 {
		t.Errorf("comparisons = %d", comps)
	}
	for i, w := range []float64{1, 2, 3} {
		if r.Tuples[i].Values[0].Num.A != w {
			t.Errorf("tuple %d = %v", i, r.Tuples[i])
		}
	}
}

// TestSortParallelRunGeneration checks that parallel run generation
// produces the identical sorted file and statistics as the serial sorter,
// at several worker counts, including counts above the pool-capacity cap.
func TestSortParallelRunGeneration(t *testing.T) {
	const n = 6000
	mkSrc := func(m *storage.Manager) *storage.HeapFile {
		src, err := m.CreateHeap("src", xSchema())
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, src, n, 99)
		return src
	}
	serialMgr := storage.NewManager(t.TempDir(), 16)
	order, _ := ByAttr(xSchema(), "X")
	serialOut, serialSt, err := NewSorter(serialMgr, 2).Sort(mkSrc(serialMgr), order)
	if err != nil {
		t.Fatal(err)
	}
	serialRel, err := serialOut.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 64} {
		m := storage.NewManager(t.TempDir(), 16)
		out, st, err := NewSorter(m, 2).WithParallelism(workers).Sort(mkSrc(m), order)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st != serialSt {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, st, serialSt)
		}
		rel, err := out.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(serialRel, 0) {
			t.Errorf("workers=%d: sorted output differs from serial", workers)
		}
	}
}

// TestWithParallelismClamps verifies the worker cap: never below 1, never
// at or above the buffer-pool capacity (each concurrent run writer pins a
// page transiently).
func TestWithParallelismClamps(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 4)
	s := NewSorter(m, 2)
	if s.WithParallelism(0); s.workers != 1 {
		t.Errorf("workers(0) = %d, want 1", s.workers)
	}
	if s.WithParallelism(100); s.workers != 3 {
		t.Errorf("workers(100) = %d, want pool capacity - 1 = 3", s.workers)
	}
	if s.WithParallelism(2); s.workers != 2 {
		t.Errorf("workers(2) = %d, want 2", s.workers)
	}
}

// checkSorted fails t unless h is sorted on its first attribute by the
// Definition 3.1 order.
func checkSorted(t *testing.T, h *storage.HeapFile) {
	t.Helper()
	rel, err := h.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rel.Tuples); i++ {
		if frel.Compare(rel.Tuples[i].Values[0], rel.Tuples[i-1].Values[0]) < 0 {
			t.Fatalf("output not sorted at %d", i)
		}
	}
}

func tieSchema() *frel.Schema {
	return frel.NewSchema("T",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "SEQ", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	)
}

// tieTuples generates n tie-heavy tuples: X takes few distinct
// distributions (some equal in support but not in core, which only the
// total order separates), NAME few distinct strings, and SEQ records the
// input position so any reordering of ties is visible.
func tieTuples(n int, seed int64) []frel.Tuple {
	rng := rand.New(rand.NewSource(seed))
	xs := []fuzzy.Trapezoid{
		fuzzy.Crisp(5), fuzzy.Interval(1, 9), {A: 1, B: 3, C: 4, D: 9},
		fuzzy.Tri(0, 5, 10), fuzzy.Crisp(-2),
	}
	names := []string{"delta", "alpha", "charlie", "bravo"}
	out := make([]frel.Tuple, n)
	for i := range out {
		out[i] = frel.NewTuple(float64(1+rng.Intn(10))/10,
			frel.Num(xs[rng.Intn(len(xs))]), frel.Crisp(float64(i)), frel.Str(names[rng.Intn(len(names))]))
	}
	return out
}

// sliceInput serves tuples as an Input in batches of 100.
type sliceInput struct{ tuples []frel.Tuple }

func (in *sliceInput) NextBatch() ([]frel.Tuple, bool) {
	n := min(100, len(in.tuples))
	b := in.tuples[:n]
	in.tuples = in.tuples[n:]
	return b, n > 0
}

func (in *sliceInput) Err() error { return nil }

// sortStream sorts tuples through SortRuns and drains the merge, checking
// that the merge serves support keys aligned with its tuples.
func sortStream(t *testing.T, m *storage.Manager, memPages, workers int, tuples []frel.Tuple, o Order) ([]frel.Tuple, Stats) {
	t.Helper()
	rs, st, err := NewSorter(m, memPages).WithParallelism(workers).SortRuns(&sliceInput{tuples}, tieSchema(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drop()
	if fanIn := max(memPages-1, 2); rs.Len() > fanIn {
		t.Fatalf("SortRuns left %d runs, fan-in %d", rs.Len(), fanIn)
	}
	mg := rs.Merge()
	defer mg.Close()
	var out []frel.Tuple
	for b, ok := mg.NextBatch(); ok; b, ok = mg.NextBatch() {
		keys := mg.Keys()
		if !o.str && len(keys) != len(b) {
			t.Fatalf("merge served %d keys for %d tuples", len(keys), len(b))
		}
		for i, tup := range b {
			if keys != nil {
				lo, hi := tup.Values[o.idx].Num.Support()
				if keys[i] != (frel.SupportKey{Lo: lo, Hi: hi, D: tup.D}) {
					t.Fatalf("key %v does not match tuple %v", keys[i], tup)
				}
			}
			out = append(out, tup)
		}
	}
	if err := mg.Err(); err != nil {
		t.Fatal(err)
	}
	st.Comparisons += mg.Comparisons()
	return out, st
}

// requireSequence fails t unless got equals want tuple for tuple.
func requireSequence(t *testing.T, got, want []frel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSortRunsMatchesStableSort: the SortRuns + merge output equals
// slices.SortStableFunc on the same input, tuple for tuple, for numeric,
// total and string orders, with a multi-pass fan-in of 2 and a single
// final merge, and with 1 and 4 run-generation workers.
func TestSortRunsMatchesStableSort(t *testing.T) {
	tuples := tieTuples(5000, 11)
	schema := tieSchema()
	cases := []struct {
		name  string
		attr  string
		total bool
		cmp   func(v, w frel.Value) int
	}{
		{"numeric", "X", false, frel.Compare},
		{"total", "X", true, frel.CompareTotal},
		{"string", "NAME", false, frel.Compare},
	}
	for _, c := range cases {
		byAttr := ByAttr
		if c.total {
			byAttr = ByAttrTotal
		}
		o, err := byAttr(schema, c.attr)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(tuples)
		slices.SortStableFunc(want, func(a, b frel.Tuple) int { return c.cmp(a.Values[o.idx], b.Values[o.idx]) })
		for _, memPages := range []int{2, 16} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/pages=%d/workers=%d", c.name, memPages, workers), func(t *testing.T) {
					got, st := sortStream(t, storage.NewManager(t.TempDir(), 16), memPages, workers, tuples, o)
					if memPages == 2 && st.MergePasses < 2 {
						t.Errorf("fan-in 2 made %d merge passes, want a multi-pass merge", st.MergePasses)
					}
					requireSequence(t, got, want)
				})
			}
		}
	}
}

// TestSortStableAcrossRuns: ties spanning many runs keep input order
// through a single k-way merge (the merge breaks key ties by run index).
func TestSortStableAcrossRuns(t *testing.T) {
	m := storage.NewManager(t.TempDir(), 32)
	src, err := m.CreateHeap("src", tieSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tieTuples(20000, 5) {
		if err := src.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	order, err := ByAttr(src.Schema, "X")
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := NewSorter(m, 16).WithParallelism(2).Sort(src, order)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 10 || st.MergePasses != 1 {
		t.Fatalf("stats %+v: want >= 10 runs in one merge pass", st)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	inversions := 0
	for i := 1; i < len(got.Tuples); i++ {
		prev, cur := got.Tuples[i-1], got.Tuples[i]
		if frel.Compare(prev.Values[0], cur.Values[0]) == 0 && prev.Values[1].Num.A > cur.Values[1].Num.A {
			inversions++
		}
	}
	if inversions > 0 {
		t.Fatalf("%d tie inversions: ties did not keep input order", inversions)
	}
}
