package frel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fuzzy"
)

// TestTableStatsObserve checks extents, widths, the crisp bucket and the
// exact distinct count on a small relation.
func TestTableStatsObserve(t *testing.T) {
	ts := NewTableStats(2) // T(A NUMBER, S STRING)
	ts.ObserveAll([]Tuple{
		NewTuple(1, Crisp(10), Str("x")),
		NewTuple(1, Num(fuzzy.Trapezoid{A: 0, B: 1, C: 3, D: 4}), Str("y")),
		NewTuple(1, Crisp(10), Str("x")),
	})
	if ts.Rows != 3 {
		t.Fatalf("Rows = %d, want 3", ts.Rows)
	}
	a := ts.Attrs[0]
	if a.Numeric != 3 || a.MinLo != 0 || a.MaxHi != 10 {
		t.Fatalf("attr stats = %+v, want numeric=3 extent [0,10]", a)
	}
	if got := ts.Span(0); got != 10 {
		t.Fatalf("Span = %v, want 10", got)
	}
	if got := ts.AvgWidth(0); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("AvgWidth = %v, want 4/3", got)
	}
	if a.WidthHist[0] != 2 {
		t.Fatalf("crisp bucket = %d, want 2", a.WidthHist[0])
	}
	if got := ts.Distinct(0); got != 2 {
		t.Fatalf("Distinct(A) = %v, want 2", got)
	}
	if got := ts.Distinct(1); got != 2 {
		t.Fatalf("Distinct(S) = %v, want 2", got)
	}
	// String attribute contributes no numeric measures.
	if ts.Span(1) != 0 || ts.AvgWidth(1) != 0 {
		t.Fatalf("string attr has numeric measures: %+v", ts.Attrs[1])
	}
}

// TestKMVEstimate checks the distinct estimator stays within a reasonable
// relative error once the sketch saturates.
func TestKMVEstimate(t *testing.T) {
	for _, n := range []int{50, 500, 5000} {
		var s kmvSketch
		for i := 0; i < n; i++ {
			h := fnv1a([]byte(fmt.Sprintf("value-%d", i)))
			s.add(h)
			s.add(h) // duplicates must not distort the estimate
		}
		got := s.distinct()
		if n <= kmvK {
			if got != float64(n) {
				t.Fatalf("n=%d: exact regime returned %v", n, got)
			}
			continue
		}
		if rel := math.Abs(got-float64(n)) / float64(n); rel > 0.5 {
			t.Fatalf("n=%d: estimate %v off by %.0f%%", n, got, rel*100)
		}
	}
}

func TestWidthBucket(t *testing.T) {
	cases := []struct {
		w    float64
		want int
	}{{0, 0}, {-1, 0}, {0.3, 1}, {1, 1}, {1.5, 1}, {2, 2}, {100, 7}, {1e9, widthBuckets - 1}}
	for _, c := range cases {
		if got := widthBucket(c.w); got != c.want {
			t.Errorf("widthBucket(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}
