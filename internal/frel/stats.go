package frel

import (
	"math"
	"sort"
)

// This file implements the per-relation statistics the planner's cost
// model feeds on (the paper's Sections 3 and 9 analyze costs in terms of
// relation cardinalities, join selectivities and sort work): tuple
// counts, per-attribute support-interval extents, a support-width
// histogram, and a distinct-support estimate. The statistics are built
// lazily from a full pass over a heap file and then maintained
// incrementally as tuples are appended (see storage.HeapFile.Stats).

const (
	// kmvK is the distinct-estimate sketch size: up to kmvK distinct
	// values the count is exact; beyond that the k-minimum-values
	// estimator extrapolates from the k-th smallest hash.
	kmvK = 64

	// widthBuckets is the number of buckets in the support-width
	// histogram: bucket 0 holds crisp values (width 0), bucket i holds
	// widths in [2^(i-1), 2^i), and the last bucket is open-ended.
	widthBuckets = 8
)

// AttrStats summarizes the values observed in one attribute column.
type AttrStats struct {
	// Numeric counts the numeric (possibility-distribution) values; the
	// extent and width fields below cover only these.
	Numeric int64
	// MinLo and MaxHi bound the observed supports: the smallest support
	// lower bound and the largest support upper bound.
	MinLo, MaxHi float64
	// WidthSum accumulates support widths (Trapezoid D−A), so
	// WidthSum/Numeric is the mean support-interval width.
	WidthSum float64
	// WidthHist is the log2 histogram of support widths; bucket 0 counts
	// crisp values.
	WidthHist [widthBuckets]int64

	sketch kmvSketch
}

// TableStats holds the statistics of one relation: its cardinality and
// one AttrStats per schema attribute.
type TableStats struct {
	Rows  int64
	Attrs []AttrStats

	key []byte // scratch buffer for hashing value keys
}

// NewTableStats returns empty statistics for a relation of n attributes.
func NewTableStats(n int) *TableStats {
	return &TableStats{Attrs: make([]AttrStats, n)}
}

// Observe folds one tuple into the statistics. Tuples whose arity does
// not match the schema contribute only to the row count.
func (ts *TableStats) Observe(t Tuple) {
	ts.Rows++
	if len(t.Values) != len(ts.Attrs) {
		return
	}
	for i, v := range t.Values {
		a := &ts.Attrs[i]
		ts.key = v.appendKey(ts.key[:0])
		a.sketch.add(fnv1a(ts.key))
		if v.Kind != KindNumber {
			continue
		}
		lo, hi := v.Num.A, v.Num.D
		if a.Numeric == 0 || lo < a.MinLo {
			a.MinLo = lo
		}
		if a.Numeric == 0 || hi > a.MaxHi {
			a.MaxHi = hi
		}
		a.Numeric++
		w := hi - lo
		a.WidthSum += w
		a.WidthHist[widthBucket(w)]++
	}
}

// Clone returns an independent deep copy of the statistics, safe to read
// while the original keeps being maintained incrementally by a writer.
func (ts *TableStats) Clone() *TableStats {
	c := &TableStats{Rows: ts.Rows, Attrs: make([]AttrStats, len(ts.Attrs))}
	copy(c.Attrs, ts.Attrs)
	for i := range c.Attrs {
		c.Attrs[i].sketch.h = append([]uint64(nil), ts.Attrs[i].sketch.h...)
	}
	return c
}

// ObserveAll folds a slice of tuples into the statistics.
func (ts *TableStats) ObserveAll(tuples []Tuple) {
	for _, t := range tuples {
		ts.Observe(t)
	}
}

// Distinct estimates the number of distinct values in attribute i.
func (ts *TableStats) Distinct(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) {
		return 0
	}
	return ts.Attrs[i].sketch.distinct()
}

// AvgWidth returns the mean support-interval width of attribute i's
// numeric values (0 when none were observed).
func (ts *TableStats) AvgWidth(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) || ts.Attrs[i].Numeric == 0 {
		return 0
	}
	return ts.Attrs[i].WidthSum / float64(ts.Attrs[i].Numeric)
}

// Span returns the extent of attribute i's observed supports
// (MaxHi − MinLo; 0 when no numeric values were observed).
func (ts *TableStats) Span(i int) float64 {
	if i < 0 || i >= len(ts.Attrs) || ts.Attrs[i].Numeric == 0 {
		return 0
	}
	return ts.Attrs[i].MaxHi - ts.Attrs[i].MinLo
}

// widthBucket maps a support width to its histogram bucket.
func widthBucket(w float64) int {
	if w <= 0 {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(w)))
	if b < 1 {
		b = 1
	}
	if b >= widthBuckets {
		b = widthBuckets - 1
	}
	return b
}

// kmvSketch is a k-minimum-values distinct counter: it retains the kmvK
// smallest distinct 64-bit hashes seen. With fewer than kmvK retained
// hashes the distinct count is exact; otherwise the k-th smallest hash's
// position in the hash space extrapolates the total.
type kmvSketch struct {
	h []uint64 // sorted ascending, at most kmvK entries
}

func (s *kmvSketch) add(h uint64) {
	i := sort.Search(len(s.h), func(j int) bool { return s.h[j] >= h })
	if i < len(s.h) && s.h[i] == h {
		return
	}
	if len(s.h) < kmvK {
		s.h = append(s.h, 0)
		copy(s.h[i+1:], s.h[i:])
		s.h[i] = h
		return
	}
	if h >= s.h[kmvK-1] {
		return
	}
	copy(s.h[i+1:], s.h[i:kmvK-1])
	s.h[i] = h
}

func (s *kmvSketch) distinct() float64 {
	if len(s.h) < kmvK {
		return float64(len(s.h))
	}
	// (k−1) values fall below the k-th smallest hash, which sits at
	// fraction h/2^64 of the hash space.
	frac := float64(s.h[kmvK-1]) / math.Exp2(64)
	if frac <= 0 {
		return float64(kmvK)
	}
	return float64(kmvK-1) / frac
}

// fnv1a is the 64-bit FNV-1a hash of b with an avalanche finalizer: the
// KMV estimator needs uniformity over the whole 64-bit range, which raw
// FNV does not provide for short keys.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
