// Package extsort implements a memory-bounded external merge sort of
// fuzzy tuples. It plays the role of the commercial Opt-Tech external sort
// used in the paper's experiments (Section 9): run generation within a
// caller-specified amount of memory followed by k-way merging.
//
// The extended merge-join sorts on the Definition 3.1 interval order of
// the join attribute (begin points, then end points; Section 3). Run
// generation sorts a flat key column — the order's key fields plus the
// tuple's input position — instead of the tuples, then writes the tuples
// to the run once, in key order. The k-way merge is a heap on the same
// keys with ties broken by run index, so the sort is stable across runs.
// The last merge pass is pipelined: SortRuns stops at no more than fan-in
// runs and a Merger streams their merge, tuples plus support keys, into
// the consumer. The write pass therefore covers the runs only.
package extsort

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/storage"
)

// Order is a stable sort order on one attribute: numbers by the
// Definition 3.1 interval order (support begin, then end), optionally
// tie-broken by the core corners (frel.CompareTotal), strings
// lexicographically. Remaining ties keep input order.
type Order struct {
	idx        int
	str, total bool
}

// ByAttr returns the Definition 3.1 order (lexicographic for strings) on
// the named attribute of schema.
func ByAttr(schema *frel.Schema, attr string) (Order, error) {
	i, err := schema.Resolve(attr)
	if err != nil {
		return Order{}, err
	}
	return Order{idx: i, str: schema.Attrs[i].Kind == frel.KindString}, nil
}

// ByAttrTotal is like ByAttr but breaks Definition 3.1 ties by the full
// corner representation (frel.CompareTotal), so tuples with identical
// values end up adjacent — the order the group-aggregate join requires.
func ByAttrTotal(schema *frel.Schema, attr string) (Order, error) {
	o, err := ByAttr(schema, attr)
	o.total = true
	return o, err
}

// key is one tuple's flat sort key: support begin a and end d, core
// corners b and c (total orders) or string s, and seq, the input position
// during run generation and the run index during a merge.
type key struct {
	a, d, b, c float64
	s          string
	seq        int
}

func (o Order) key(t frel.Tuple, seq int) key {
	v := t.Values[o.idx]
	if o.str {
		return key{s: v.Str, seq: seq}
	}
	return key{a: v.Num.A, d: v.Num.D, b: v.Num.B, c: v.Num.C, seq: seq}
}

// compare orders two keys by o, then by seq.
func (o Order) compare(x, y *key) int {
	if o.str {
		if c := strings.Compare(x.s, y.s); c != 0 {
			return c
		}
	} else if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	} else if c := cmp.Compare(x.d, y.d); c != 0 {
		return c
	} else if o.total {
		if c := cmp.Compare(x.b, y.b); c != 0 {
			return c
		}
		if c := cmp.Compare(x.c, y.c); c != 0 {
			return c
		}
	}
	return x.seq - y.seq
}

// sortKeys returns the key column of tuples in sorted order and the key
// comparisons it took. The sequence tie-break makes the unstable
// slices.SortFunc produce the stable order.
func (o Order) sortKeys(tuples []frel.Tuple) ([]key, int64) {
	keys := make([]key, len(tuples))
	for i, t := range tuples {
		keys[i] = o.key(t, i)
	}
	var n int64
	slices.SortFunc(keys, func(x, y key) int {
		n++
		return o.compare(&x, &y)
	})
	return keys, n
}

// SortTuples returns tuples stably sorted by o in a new slice, and the
// key comparisons it took. It backs the engine's in-memory sorts.
func SortTuples(tuples []frel.Tuple, o Order) ([]frel.Tuple, int64) {
	keys, n := o.sortKeys(tuples)
	out := make([]frel.Tuple, len(keys))
	for i, k := range keys {
		out[i] = tuples[k.seq]
	}
	return out, n
}

// Stats reports the work a sort performed.
type Stats struct {
	Tuples      int64 // tuples sorted
	Runs        int   // initial sorted runs generated
	MergePasses int   // k-way merge passes, the streamed final one included
	Comparisons int64 // key comparisons
	SpillBytes  int64 // tuple bytes written to temporary run files
}

// Input is a stream of tuple batches (exec.BatchIterator satisfies it).
// A batch is only read until the next NextBatch call.
type Input interface {
	NextBatch() ([]frel.Tuple, bool)
	Err() error
}

// Sorter sorts tuple streams with a fixed memory budget.
type Sorter struct {
	mgr      *storage.Manager
	memPages int
	workers  int
}

// NewSorter creates a sorter that uses at most memPages pages worth of
// tuple memory for run generation and memPages-1 fan-in for merging
// (minimum 2 pages).
func NewSorter(mgr *storage.Manager, memPages int) *Sorter {
	return &Sorter{mgr: mgr, memPages: max(memPages, 2), workers: 1}
}

// WithParallelism sets the worker count for run generation: while the
// input is read sequentially, up to workers memory-sized batches are
// sorted and written to their runs concurrently, so peak tuple memory
// grows to workers × memPages. The count is capped below the buffer-pool
// capacity (each run writer pins a page transiently); 1 is serial.
func (s *Sorter) WithParallelism(workers int) *Sorter {
	s.workers = max(min(workers, s.mgr.Pool().Capacity()-1), 1)
	return s
}

// Sort sorts the heap file src by o into a fresh temporary heap file,
// owned by the caller: SortRuns, then the merge drained into the file.
func (s *Sorter) Sort(src *storage.HeapFile, o Order) (*storage.HeapFile, Stats, error) {
	rs, st, err := s.SortRuns(&scanInput{sc: src.Scan(), buf: make([]frel.Tuple, 0, 256)}, src.Schema, o)
	if err != nil {
		return nil, st, err
	}
	if len(rs.runs) == 1 {
		return rs.runs[0], st, nil
	}
	out, err := s.mergeRuns(rs, rs.runs, &st)
	if derr := rs.Drop(); err == nil && derr != nil {
		out.Drop()
		return nil, st, derr
	}
	return out, st, err
}

// scanInput adapts a heap scanner to Input.
type scanInput struct {
	sc  *storage.Scanner
	buf []frel.Tuple
}

func (in *scanInput) NextBatch() ([]frel.Tuple, bool) {
	in.buf = in.sc.NextBatch(in.buf)
	return in.buf, len(in.buf) > 0
}

func (in *scanInput) Err() error { return in.sc.Err() }

// RunSet is the result of SortRuns: at most fan-in sorted runs whose
// merge is the sorted input. Any number of merges may be opened, also
// at once, until Drop.
type RunSet struct {
	schema *frel.Schema
	order  Order
	runs   []*storage.HeapFile
}

// Len returns the number of runs.
func (rs *RunSet) Len() int { return len(rs.runs) }

// Drop deletes the run files.
func (rs *RunSet) Drop() error {
	err := dropAll(rs.runs)
	rs.runs = nil
	return err
}

func dropAll(runs []*storage.HeapFile) error {
	var first error
	for _, r := range runs {
		if err := r.Drop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SortRuns reads in to exhaustion into a run set of at most fan-in runs,
// merging consecutive runs into longer ones (written passes) only while
// there are more. Batches are cut at the same points and sorted by the
// same deterministic key sort at any worker count, so runs, contents and
// comparison counts do not depend on it.
func (s *Sorter) SortRuns(in Input, schema *frel.Schema, o Order) (*RunSet, Stats, error) {
	var (
		st         Stats
		rs         = &RunSet{schema: schema, order: o}
		cmps       atomic.Int64
		wg         sync.WaitGroup
		errOnce    sync.Once
		writeErr   error
		sem        = make(chan struct{}, s.workers)
		batch      []frel.Tuple
		batchBytes int
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		// Runs are created here, in input order; only sorting and
		// appending move to the worker.
		run, err := s.mgr.CreateTemp(schema)
		if err != nil {
			return err
		}
		rs.runs = append(rs.runs, run)
		st.Runs++
		st.SpillBytes += int64(batchBytes)
		b := batch
		batch, batchBytes = make([]frel.Tuple, 0, len(b)), 0
		sem <- struct{}{} // bound in-flight batches (and their memory)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			keys, n := o.sortKeys(b)
			cmps.Add(n)
			for _, k := range keys {
				if err := run.Append(b[k.seq]); err != nil {
					errOnce.Do(func() { writeErr = err })
					return
				}
			}
		}()
		return nil
	}
	var err error
	for b, ok := in.NextBatch(); ok && err == nil; b, ok = in.NextBatch() {
		for _, t := range b {
			st.Tuples++
			batch = append(batch, t)
			if batchBytes += frel.EncodedSize(schema, t); batchBytes >= s.memPages*storage.PageSize {
				if err = flush(); err != nil {
					break
				}
			}
		}
	}
	if err == nil {
		if err = in.Err(); err == nil {
			err = flush()
		}
	}
	wg.Wait()
	st.Comparisons += cmps.Load()
	if err == nil {
		err = writeErr
	}
	for fanIn := max(s.memPages-1, 2); err == nil && len(rs.runs) > fanIn; {
		st.MergePasses++
		in := rs.runs
		rs.runs = nil
		for lo := 0; lo < len(in) && err == nil; lo += fanIn {
			group := in[lo:min(lo+fanIn, len(in))]
			merged, merr := s.mergeRuns(rs, group, &st)
			if err = merr; err != nil {
				rs.runs = append(rs.runs, in[lo:]...)
				break
			}
			rs.runs = append(rs.runs, merged)
			if err = dropAll(group); err != nil {
				rs.runs = append(rs.runs, in[lo+len(group):]...)
			}
		}
	}
	if err != nil {
		rs.Drop()
		return nil, st, err
	}
	if len(rs.runs) > 1 {
		st.MergePasses++ // the final pass, streamed by Merge
	}
	return rs, st, nil
}

// mergeRuns writes the merge of group into one new run, accounting its
// bytes and comparisons to st.
func (s *Sorter) mergeRuns(rs *RunSet, group []*storage.HeapFile, st *Stats) (*storage.HeapFile, error) {
	out, err := s.mgr.CreateTemp(rs.schema)
	if err != nil {
		return nil, err
	}
	m := (&RunSet{schema: rs.schema, order: rs.order, runs: group}).Merge()
	defer m.Close()
	for b, ok := m.NextBatch(); ok && err == nil; b, ok = m.NextBatch() {
		for _, t := range b {
			if err = out.Append(t); err != nil {
				break
			}
			st.SpillBytes += int64(frel.EncodedSize(rs.schema, t))
		}
	}
	if err == nil {
		err = m.Err()
	}
	st.Comparisons += m.Comparisons()
	if err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// Merger streams the k-way merge of a run set: a binary min-heap of run
// cursors ordered by (key, run index). Each batch of up to 1024 tuples
// comes with its support keys (none for string orders), so a Merger is
// an exec.KeyedBatchIterator; batches follow the exec reuse contract.
type Merger struct {
	o     Order
	scans []*storage.Scanner
	heap  []cursor
	out   []frel.Tuple
	keys  []frel.SupportKey
	cmp   int64
	err   error
}

// cursor is one run's current tuple; k.seq is the run index.
type cursor struct {
	k key
	t frel.Tuple
}

// Merge opens a streaming merge of the run set.
func (rs *RunSet) Merge() *Merger {
	m := &Merger{o: rs.order}
	for i, r := range rs.runs {
		sc := r.Scan()
		m.scans = append(m.scans, sc)
		if t, ok := sc.Next(); ok {
			m.heap = append(m.heap, cursor{rs.order.key(t, i), t})
		} else if m.err == nil {
			m.err = sc.Err()
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

func (m *Merger) less(i, j int) bool {
	m.cmp++
	return m.o.compare(&m.heap[i].k, &m.heap[j].k) < 0
}

// down restores the heap property below position i.
func (m *Merger) down(i int) {
	for n := len(m.heap); ; {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && m.less(c+1, c) {
			c++
		}
		if !m.less(c, i) {
			return
		}
		m.heap[i], m.heap[c] = m.heap[c], m.heap[i]
		i = c
	}
}

// NextBatch returns the next tuples in merge order.
func (m *Merger) NextBatch() ([]frel.Tuple, bool) {
	m.out, m.keys = m.out[:0], m.keys[:0]
	for m.err == nil && len(m.heap) > 0 && len(m.out) < 1024 {
		top := &m.heap[0]
		m.out = append(m.out, top.t)
		if !m.o.str {
			m.keys = append(m.keys, frel.SupportKey{Lo: top.k.a, Hi: top.k.d, D: top.t.D})
		}
		if t, ok := m.scans[top.k.seq].Next(); ok {
			*top = cursor{m.o.key(t, top.k.seq), t}
		} else if m.err = m.scans[top.k.seq].Err(); m.err == nil {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		m.down(0)
	}
	return m.out, m.err == nil && len(m.out) > 0
}

// Keys returns the support keys of the last batch, aligned with it (nil
// for string orders).
func (m *Merger) Keys() []frel.SupportKey { return m.keys }

// Comparisons returns the key comparisons the merge has made so far.
func (m *Merger) Comparisons() int64 { return m.cmp }

// Err reports the first read error.
func (m *Merger) Err() error { return m.err }

// Close releases the run scanners; the runs themselves stay.
func (m *Merger) Close() {
	for _, sc := range m.scans {
		sc.Close()
	}
}
