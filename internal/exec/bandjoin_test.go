package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// bruteBandJoin is the all-pairs reference of the band merge-join.
func bruteBandJoin(r, s *frel.Relation, tol fuzzy.Trapezoid) *frel.Relation {
	out := frel.NewRelation(r.Schema.Join(s.Schema))
	ri, _ := r.Schema.Resolve("X")
	si, _ := s.Schema.Resolve("X")
	for _, l := range r.Tuples {
		for _, m := range s.Tuples {
			d := fuzzy.Min(l.D, m.D, fuzzy.ApproxEq(l.Values[ri].Num, m.Values[si].Num, tol))
			if d > 0 {
				out.Append(l.Concat(m, d))
			}
		}
	}
	return out
}

func TestBandMergeJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tols := []fuzzy.Trapezoid{
		fuzzy.Crisp(0),
		fuzzy.Tolerance(0, 2),
		fuzzy.Tolerance(1, 4),
		fuzzy.Interval(-10, 10),
	}
	for trial := 0; trial < 10; trial++ {
		r := randomRel("R", 30, 50, 3, rng)
		s := randomRel("S", 40, 50, 3, rng)
		for _, tol := range tols {
			want := bruteBandJoin(r, s, tol)
			for _, workers := range []int{1, 4} {
				mj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", tol, nil, testNode(), workers)
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, mj)
				if !got.Equal(want, 0) {
					t.Fatalf("trial %d tol %v workers %d: band join mismatch: got %d, want %d", trial, tol, workers, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestBandMergeJoinCrispBand: the classic crisp band join |x - y| <= w.
func TestBandMergeJoinCrispBand(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	s := frel.NewRelation(xSchema("S"))
	for i := 0; i < 20; i++ {
		r.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Crisp(float64(i*10))))
		s.Append(frel.NewTuple(1, frel.Crisp(float64(i)), frel.Crisp(float64(i*10+4))))
	}
	// Band 5: each r matches exactly the s shifted by +4 (and the one 6
	// below? i*10 vs (i-1)*10+4 = i*10-6: |diff| = 6 > 5, no).
	band := fuzzy.Interval(-5, 5)
	mj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), sortedSource(t, s, "X"), "R.X", "S.X", band, nil, testNode(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, mj)
	if got.Len() != 20 {
		t.Fatalf("band join matched %d pairs, want 20", got.Len())
	}
	for _, tup := range got.Tuples {
		if tup.D != 1 {
			t.Errorf("crisp band match degree = %g, want 1", tup.D)
		}
	}
}

func TestBandMergeJoinInvalidTolerance(t *testing.T) {
	r := frel.NewRelation(xSchema("R"))
	if _, err := NewKernelMergeJoin(NewMemSource(r), NewMemSource(r.Clone()), "X", "X",
		fuzzy.Trapezoid{A: 2, B: 1, C: 0, D: -1}, nil, testNode(), 1); err == nil {
		t.Errorf("invalid tolerance: want error")
	}
}

// TestBandMergeJoinSinglePass: the tolerance must not break the
// single-pass property — the inner side is still consumed once.
func TestBandMergeJoinSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	r := randomRel("R", 200, 2000, 1, rng)
	s := randomRel("S", 200, 2000, 1, rng)
	inner := &countingSource{Source: sortedSource(t, s, "X")}
	mj, err := NewKernelMergeJoin(sortedSource(t, r, "X"), inner, "R.X", "S.X", fuzzy.Tolerance(0, 50), nil, testNode(), 4)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, mj)
	if inner.opens != 1 {
		t.Errorf("inner opened %d times, want 1", inner.opens)
	}
}
