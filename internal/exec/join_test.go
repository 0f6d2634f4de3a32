package exec

import (
	"math/rand"
	"testing"

	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fuzzy"
)

func xSchema(name string) *frel.Schema {
	return frel.NewSchema(name,
		frel.Attribute{Name: "ID", Kind: frel.KindNumber},
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
	)
}

// randomRel builds a relation of n tuples with fuzzy X values drawn from
// [0, span] with widths in [0, maxWidth].
func randomRel(name string, n int, span, maxWidth float64, rng *rand.Rand) *frel.Relation {
	r := frel.NewRelation(xSchema(name))
	for i := 0; i < n; i++ {
		c := rng.Float64() * span
		wl := rng.Float64() * maxWidth
		wr := rng.Float64() * maxWidth
		var x fuzzy.Trapezoid
		switch rng.Intn(3) {
		case 0:
			x = fuzzy.Crisp(c)
		case 1:
			x = fuzzy.Tri(c-wl, c, c+wr)
		default:
			x = fuzzy.Trap(c-wl-wr, c-wl, c+wl, c+wl+wr)
		}
		d := rng.Float64()*0.9 + 0.1
		r.Append(frel.NewTuple(d, frel.Crisp(float64(i)), frel.Num(x)))
	}
	return r
}

func sortedSource(t *testing.T, r *frel.Relation, attr string) Source {
	t.Helper()
	c := r.Clone()
	order, err := extsort.ByAttr(c.Schema, attr)
	if err != nil {
		t.Fatal(err)
	}
	c.Tuples, _ = extsort.SortTuples(c.Tuples, order)
	return NewMemSource(c)
}

// equiJoin builds the merge-join on exact fuzzy equality with an
// optional interpreted residual predicate.
func equiJoin(t *testing.T, outer, inner Source, outerAttr, innerAttr string, residual JoinPred, st *OpStats, workers int) *KernelMergeJoin {
	t.Helper()
	mj, err := NewKernelMergeJoin(outer, inner, outerAttr, innerAttr, fuzzy.Crisp(0), nil, st, workers)
	if err != nil {
		t.Fatal(err)
	}
	mj.Residual = residual
	return mj
}

// bruteJoin is the reference all-pairs fuzzy equi-join.
func bruteJoin(r, s *frel.Relation) *frel.Relation {
	out := frel.NewRelation(r.Schema.Join(s.Schema))
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	for _, l := range r.Tuples {
		for _, m := range s.Tuples {
			d := fuzzy.Min(l.D, m.D, fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num))
			if d > 0 {
				out.Append(l.Concat(m, d))
			}
		}
	}
	return out
}

func TestMergeJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := randomRel("R", 40, 50, 3, rng)
		s := randomRel("S", 60, 50, 3, rng)
		want := bruteJoin(r, s)
		for _, workers := range []int{1, 4} {
			got := drain(t, equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", nil, testNode(), workers))
			if !got.Equal(want, 0) {
				t.Fatalf("trial %d workers %d: merge-join mismatch: got %d tuples, want %d", trial, workers, got.Len(), want.Len())
			}
		}
	}
}

func TestMergeJoinWideIntervalsDanglingTuples(t *testing.T) {
	// The Section 3 caveat: a huge interval keeps tuples in Rng(r) that do
	// not actually join. Results must still be exact.
	rng := rand.New(rand.NewSource(5))
	r := randomRel("R", 30, 40, 20, rng)
	s := randomRel("S", 30, 40, 20, rng)
	want := bruteJoin(r, s)
	for _, workers := range []int{1, 4} {
		got := drain(t, equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", nil, testNode(), workers))
		if !got.Equal(want, 0) {
			t.Fatalf("workers %d: wide-interval merge-join mismatch", workers)
		}
	}
}

func TestBlockNLJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randomRel("R", 35, 50, 3, rng)
	s := randomRel("S", 45, 50, 3, rng)
	want := bruteJoin(r, s)
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	on := func(l, m frel.Tuple) float64 {
		return fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num)
	}
	// Small block size to force several inner rescans.
	j := NewBlockNLJoin(NewMemSource(r), NewMemSource(s), on, 512, testNode())
	got := drain(t, j)
	if !got.Equal(want, 0) {
		t.Fatalf("nested-loop mismatch: got %d, want %d", got.Len(), want.Len())
	}

	// A cross product several output batches long, with the block budget
	// cutting outer batches short: every pair once, at min(l.D, m.D).
	big := randomRel("R", 1500, 50, 3, rng)
	cross := NewBlockNLJoin(NewMemSource(big), NewMemSource(s), func(l, m frel.Tuple) float64 { return 1 }, 8192, testNode())
	got = drain(t, cross)
	if got.Len() != big.Len()*s.Len() {
		t.Fatalf("cross product emitted %d pairs, want %d", got.Len(), big.Len()*s.Len())
	}
	want = frel.NewRelation(big.Schema.Join(s.Schema))
	for _, l := range big.Tuples {
		for _, m := range s.Tuples {
			want.Append(l.Concat(m, fuzzy.Min(l.D, m.D)))
		}
	}
	if !got.Equal(want, 0) {
		t.Fatalf("cross product mismatch")
	}
}

func TestMergeJoinExtraPredicate(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	s := frel.NewRelation(xSchema("S"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(20)))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	s.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(20)))
	// Join on X with the extra predicate R.ID = S.ID, as in Query J'.
	ri, _ := r.Schema.Resolve("ID")
	si, _ := s.Schema.Resolve("ID")
	extra := func(l, m frel.Tuple) float64 {
		return fuzzy.Eq(l.Values[ri].Num, m.Values[si].Num)
	}
	got := drain(t, equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", extra, testNode(), 1))
	if got.Len() != 2 {
		t.Fatalf("len = %d, want 2 (extra predicate filters cross pairs)", got.Len())
	}
}

func TestMergeJoinRejectsUnsortedInputs(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(5))) // out of order
	s := frel.NewRelation(xSchema("S"))
	s.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(5)))
	s.Append(frel.NewTuple(1, frel.Crisp(2), frel.Crisp(10)))

	for _, workers := range []int{1, 4} {
		if _, err := Collect(equiJoin(t, NewMemSource(r), NewMemSource(s), "R.X", "S.X", nil, testNode(), workers)); err == nil {
			t.Errorf("workers %d: unsorted outer: want error", workers)
		}
		if _, err := Collect(equiJoin(t, NewMemSource(s), NewMemSource(r), "S.X", "R.X", nil, testNode(), workers)); err == nil {
			t.Errorf("workers %d: unsorted inner: want error", workers)
		}
	}
}

func TestMergeJoinRejectsStringAttr(t *testing.T) {
	r := frel.NewRelation(frel.NewSchema("R", frel.Attribute{Name: "NAME", Kind: frel.KindString}))
	if _, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(r.Clone()), "NAME", "NAME", fuzzy.Crisp(0), nil, testNode(), 1); err == nil {
		t.Errorf("string join attribute: want error")
	}
}

func TestMergeJoinCountsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 50, 40, 2, rng)
	s := randomRel("S", 50, 40, 2, rng)
	c := testNode()
	out := drain(t, NewStated(equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", nil, c, 1), c))
	if c.DegreeEvals.Load() <= 0 || c.Comparisons.Load() < c.DegreeEvals.Load() {
		t.Errorf("counters: degreeEvals=%d comparisons=%d", c.DegreeEvals.Load(), c.Comparisons.Load())
	}
	if c.RowsOut.Load() != int64(out.Len()) {
		t.Errorf("RowsOut = %d, want %d", c.RowsOut.Load(), out.Len())
	}
}

// TestMergeJoinExaminesOnlyRange: with narrow intervals the merge-join must
// perform far fewer pair examinations than the n*m of a nested loop.
func TestMergeJoinExaminesOnlyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 400
	r := randomRel("R", n, 10000, 1, rng)
	s := randomRel("S", n, 10000, 1, rng)
	c := testNode()
	drain(t, equiJoin(t, sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", nil, c, 1))
	if c.Comparisons.Load() > n*n/10 {
		t.Errorf("comparisons = %d, want far fewer than %d", c.Comparisons.Load(), n*n)
	}
}

func TestBlockNLJoinBlockCount(t *testing.T) {
	// The inner source must be re-opened once per outer block.
	r := relXY("R",
		frel.NewTuple(1, frel.Crisp(1), frel.Str("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa")),
		frel.NewTuple(1, frel.Crisp(2), frel.Str("bbbbbbbbbbbbbbbbbbbbbbbbbbbbb")),
		frel.NewTuple(1, frel.Crisp(3), frel.Str("ccccccccccccccccccccccccccccc")),
	)
	s := relXY("S", frel.NewTuple(1, frel.Crisp(1), frel.Str("x")))
	inner := &countingSource{Source: NewMemSource(s)}
	j := NewBlockNLJoin(NewMemSource(r), inner, func(l, m frel.Tuple) float64 { return 1 }, 80, testNode())
	out := drain(t, j)
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if inner.opens < 2 {
		t.Errorf("inner opened %d times, want one per block (>= 2)", inner.opens)
	}
}

type countingSource struct {
	Source
	opens int
}

func (c *countingSource) Open() (BatchIterator, error) {
	c.opens++
	return c.Source.Open()
}
