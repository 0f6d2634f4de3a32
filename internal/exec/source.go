// Package exec implements the physical query operators of the fuzzy
// database engine: scans, fuzzy selection, projection with max-degree
// duplicate elimination, the naive block nested-loop join, the paper's
// extended merge-join (Section 3), and the specialized operators the
// unnesting rewrites of Sections 5-7 compile to (merge anti-join with
// group-minimum degrees, sorted group-aggregate join with the COUNT
// outer-join arm).
//
// Operators exchange batches of frel.Tuple values whose D field carries
// the running membership degree; every operator combines degrees with
// fuzzy AND (min) and drops tuples whose degree reaches 0, per the
// execution semantics of Section 2.2.
//
// Buffer-reuse contract: the []frel.Tuple a NextBatch returns is only
// valid until the next NextBatch (or Close) call on the same iterator —
// producers may recycle the backing array. Consumers that retain tuples
// across calls must copy the tuple structs out first. The Values slices
// inside the tuples, however, are immutable and never recycled: operators
// that build new tuples (joins, projections) write into a fresh arena per
// output batch, so a retained tuple's values stay valid forever. Batches
// are read-only to consumers.
package exec

import (
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/storage"
)

// BatchSize is the target number of tuples per batch. Producers may return
// shorter (or, when replaying materialized results, longer) batches; only
// empty means exhausted.
const BatchSize = 1024

// BatchIterator yields tuples a batch at a time. After NextBatch returns
// ok == false the caller must check Err. Close releases resources and is
// idempotent. See the package comment for the buffer-reuse contract.
type BatchIterator interface {
	NextBatch() ([]frel.Tuple, bool)
	Err() error
	Close()
}

// KeyedBatchIterator is a BatchIterator that can also serve the
// precomputed support-interval keys of its last batch (aligned index for
// index). Keys returns nil when no keys are available; like the batch, the
// returned slice is only valid until the next NextBatch call.
type KeyedBatchIterator interface {
	BatchIterator
	Keys() []frel.SupportKey
}

// Source is an openable stream of tuples with a known schema. A Source may
// be opened multiple times (the nested-loop join re-opens its inner
// source once per outer block).
type Source interface {
	Schema() *frel.Schema
	Open() (BatchIterator, error)
}

// batchKeys returns the support keys of it's last batch, or nil when the
// iterator does not serve keys.
func batchKeys(it BatchIterator) []frel.SupportKey {
	if k, ok := it.(KeyedBatchIterator); ok {
		return k.Keys()
	}
	return nil
}

// Counters accumulates the CPU-side work measures reported by the
// experiments across statements: fuzzy degree evaluations (the dominant
// cost the paper attributes to "calls to the fuzzy library functions")
// and tuple comparisons made by merges and sorts. It is a sum, not a
// second counting path: operators count only into their plan nodes, and
// each statement adds its tree's totals once, when it ends (AddTotals).
// Counters must not be copied after first use.
type Counters struct {
	DegreeEvals atomic.Int64
	Comparisons atomic.Int64

	// Sort-order cache traffic: a hit means a query reused a previously
	// built sorted permutation (no re-sort), a miss means the order was
	// built and stored.
	SortCacheHits   atomic.Int64
	SortCacheMisses atomic.Int64

	// IndexHits counts sorted inputs served from a persistent order index
	// (no sort at all, neither cached nor fresh).
	IndexHits atomic.Int64

	// KernelTuples counts tuples whose degrees were computed by compiled
	// kernels (the fused filter and kernel merge-join hot loops) instead of
	// the interpreted evaluator; Morsels counts the work units the morsel
	// scheduler dispatched. Both are observability-only measures: they do
	// not participate in any invariance oracle.
	KernelTuples atomic.Int64
	Morsels      atomic.Int64
}

// AddTotals adds the work counted in the statistics tree rooted at s.
func (c *Counters) AddTotals(s *StatsSnapshot) {
	c.DegreeEvals.Add(s.DegreeEvals)
	c.Comparisons.Add(s.Comparisons)
	c.SortCacheHits.Add(s.CacheHits)
	c.SortCacheMisses.Add(s.CacheMisses)
	c.IndexHits.Add(s.IndexHits)
	c.KernelTuples.Add(s.KernelTuples)
	c.Morsels.Add(s.Morsels)
	for _, ch := range s.Children {
		c.AddTotals(ch)
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.DegreeEvals.Store(0)
	c.Comparisons.Store(0)
	c.SortCacheHits.Store(0)
	c.SortCacheMisses.Store(0)
	c.IndexHits.Store(0)
	c.KernelTuples.Store(0)
	c.Morsels.Store(0)
}

// Collect drains a source into an in-memory relation (one bulk append
// per batch).
func Collect(src Source) (*frel.Relation, error) {
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := frel.NewRelation(src.Schema())
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		out.Append(b...)
	}
	return out, it.Err()
}

// MemSource serves tuples from an in-memory relation.
type MemSource struct {
	Rel *frel.Relation
}

// NewMemSource wraps an in-memory relation.
func NewMemSource(r *frel.Relation) *MemSource { return &MemSource{Rel: r} }

// Schema implements Source.
func (m *MemSource) Schema() *frel.Schema { return m.Rel.Schema }

// Open implements Source.
func (m *MemSource) Open() (BatchIterator, error) {
	return &memBatchIterator{tuples: m.Rel.Tuples}, nil
}

// memBatchIterator serves consecutive subslices of a tuple slice, with an
// optional aligned support-key column. Served batches alias the backing
// slice, which the iterator never recycles, so they outlive the
// reuse-contract minimum.
type memBatchIterator struct {
	tuples []frel.Tuple
	keys   []frel.SupportKey // optional, aligned with tuples
	pos    int

	lastKeys []frel.SupportKey
}

func (it *memBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		it.lastKeys = nil
		return nil, false
	}
	end := it.pos + BatchSize
	if end > len(it.tuples) {
		end = len(it.tuples)
	}
	b := it.tuples[it.pos:end]
	if it.keys != nil {
		it.lastKeys = it.keys[it.pos:end]
	}
	it.pos = end
	return b, true
}

func (it *memBatchIterator) Keys() []frel.SupportKey { return it.lastKeys }
func (it *memBatchIterator) Err() error              { return nil }
func (it *memBatchIterator) Close()                  {}

// KeyedMemSource is a MemSource carrying the precomputed support-interval
// keys of its tuples on one attribute (the sort attribute). The engine's
// sort-order cache serves cached sorted relations through it, so the
// merge-join reads interval endpoints from the flat key column instead of
// recomputing them per tuple. SortKeys must be aligned with Rel.Tuples;
// nil degrades to an ordinary MemSource.
type KeyedMemSource struct {
	MemSource
	SortKeys []frel.SupportKey
}

// NewKeyedMemSource wraps a relation with its precomputed key column.
func NewKeyedMemSource(r *frel.Relation, keys []frel.SupportKey) *KeyedMemSource {
	return &KeyedMemSource{MemSource: MemSource{Rel: r}, SortKeys: keys}
}

// Open implements Source, serving keys alongside tuples.
func (m *KeyedMemSource) Open() (BatchIterator, error) {
	return &memBatchIterator{tuples: m.Rel.Tuples, keys: m.SortKeys}, nil
}

// HeapSource serves tuples from an on-disk heap file through its buffer
// pool, so scans are charged page I/O. Limit, when non-negative, bounds
// the scan to the first Limit tuples — the snapshot-visibility bound of
// MVCC reads (heaps are append-only, so a committed prefix is a
// consistent state).
type HeapSource struct {
	Heap  *storage.HeapFile
	Limit int64
}

// NewHeapSource wraps a heap file for a full (unbounded) scan.
func NewHeapSource(h *storage.HeapFile) *HeapSource { return &HeapSource{Heap: h, Limit: -1} }

// NewHeapSourceAt wraps a heap file for a scan of its first limit tuples
// only, the snapshot-read entry point.
func NewHeapSourceAt(h *storage.HeapFile, limit int64) *HeapSource {
	return &HeapSource{Heap: h, Limit: limit}
}

// Schema implements Source.
func (h *HeapSource) Schema() *frel.Schema { return h.Heap.Schema }

// Open implements Source: the scan decodes a page-sized batch at a time
// into a reused buffer.
func (h *HeapSource) Open() (BatchIterator, error) {
	if h.Limit >= 0 {
		return &heapBatchIterator{sc: h.Heap.ScanAt(h.Limit)}, nil
	}
	return &heapBatchIterator{sc: h.Heap.Scan()}, nil
}

type heapBatchIterator struct {
	sc     *storage.Scanner
	buf    []frel.Tuple
	closed bool
}

func (it *heapBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.closed {
		return nil, false
	}
	if it.buf == nil {
		it.buf = make([]frel.Tuple, 0, BatchSize)
	}
	it.buf = it.sc.NextBatch(it.buf)
	if len(it.buf) == 0 {
		return nil, false
	}
	return it.buf, true
}

func (it *heapBatchIterator) Err() error { return it.sc.Err() }

func (it *heapBatchIterator) Close() {
	if !it.closed {
		it.sc.Close()
		it.closed = true
	}
}
