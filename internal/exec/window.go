// Shared machinery of the merge-based operators: the Rng(r) sweep of
// Section 3 over flat support-key columns, its morsel scheduling, and the
// batch-local work counters. The extended merge-join, the group-minimum
// anti-join and the group-aggregate join all run on it; each supplies
// only its per-morsel body.
package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// batchLocals accumulates the per-pair work counters of one morsel so the
// shared atomics are touched once per morsel. The cmp/deg/tout fields
// mirror Counters, stCmp/stDeg and the rng fields mirror OpStats (see
// KernelMergeJoin.Stats for the two counting conventions).
type batchLocals struct {
	cmp, deg, tout int64
	stCmp, stDeg   int64
	rngN, rngSum   int64
	rngMin, rngMax int64
}

func newBatchLocals() batchLocals { return batchLocals{rngMin: math.MaxInt64} }

func (l *batchLocals) observeRng(n int64) {
	l.rngN++
	l.rngSum += n
	if n < l.rngMin {
		l.rngMin = n
	}
	if n > l.rngMax {
		l.rngMax = n
	}
}

func (l *batchLocals) flush(c *Counters, st *OpStats) {
	if l.cmp != 0 {
		c.Comparisons.Add(l.cmp)
	}
	if l.deg != 0 {
		c.DegreeEvals.Add(l.deg)
	}
	if l.tout != 0 {
		c.TuplesOut.Add(l.tout)
	}
	if st != nil {
		if l.stCmp != 0 {
			st.Comparisons.Add(l.stCmp)
		}
		if l.stDeg != 0 {
			st.DegreeEvals.Add(l.stDeg)
		}
		st.ObserveRngBulk(l.rngN, l.rngSum, l.rngMin, l.rngMax)
	}
	*l = newBatchLocals()
}

// sweepMorsel is one morsel of a merge sweep: outer[oLo:oHi] against
// inner[start:iHi], with the Rng(r) cursor [start, end) over the inner
// key column and the morsel's work counters.
type sweepMorsel struct {
	outer, inner []frel.Tuple
	oKeys, iKeys []frel.SupportKey
	tol          fuzzy.Trapezoid

	oLo, oHi   int
	start, end int
	iHi        int
	loc        batchLocals
}

// window moves the Rng(r) cursor to the outer support [lo, hi] and returns
// the candidate inner range: it admits the inner tuples whose widened
// supports begin at or before hi, then drops the leading ones whose
// widened supports end before lo (they precede every later range too).
// Outer supports must arrive in begin order. Admitting before dropping
// empties the window at every atomic cut, so the candidates — and with
// them Counters.Comparisons — do not depend on where a morsel starts.
func (m *sweepMorsel) window(lo, hi float64) (int, int) {
	for m.end < m.iHi && m.iKeys[m.end].Lo+m.tol.A <= hi {
		m.end++
	}
	for m.start < m.end && m.iKeys[m.start].Hi+m.tol.D < lo {
		m.start++
	}
	return m.start, m.end
}

// hits is the support pretest: whether inner k's widened support
// intersects [lo, hi], bit-identical to Intersects(Add(s, tol)).
func (m *sweepMorsel) hits(k int, lo, hi float64) bool {
	return lo <= m.iKeys[k].Hi+m.tol.D && m.iKeys[k].Lo+m.tol.A <= hi
}

// runSweep is the extended merge-join's scan, shared by every merge
// operator. It drains both inputs (sorted on their join attributes by the
// Definition 3.1 order) into flat tuple and support-key columns, splits
// them into atomic ranges — wherever every interval seen so far ends
// before the next one begins, no pair can cross — and coalesces the ranges
// into morsels that a pool of workers pulls from a shared queue. body runs
// once per morsel and returns its output, and the outputs are replayed in
// morsel order, so the answer is the same tuple sequence, with the same
// degrees, at every worker count. Morsels are small and a worker that
// finishes one pulls the next, so the tail of a skewed sweep is bounded by
// its largest atomic range, not by a fixed partition; serial runs use one
// morsel.
//
// Inner tuples are band-widened by tol. The inner is read only up to the
// first tuple whose widened support begins after the last outer support
// ends: no Rng(r) reaches that tuple or any after it.
func runSweep(outer, inner Source, oi, ii int, tol fuzzy.Trapezoid, workers int, c *Counters, st *OpStats, body func(m *sweepMorsel) []frel.Tuple) (BatchIterator, error) {
	oTuples, oKeys, err := collectKeyed(outer, oi, "outer", 0, math.Inf(1))
	if err != nil {
		return nil, err
	}
	reach := math.Inf(-1)
	for _, k := range oKeys {
		reach = math.Max(reach, k.Hi)
	}
	iTuples, iKeys, err := collectKeyed(inner, ii, "inner", tol.A, reach)
	if err != nil {
		return nil, err
	}
	ranges := atomicCutsKeyed(oKeys, iKeys, tol)
	grain := morselGrain(len(oTuples)+len(iTuples), workers)
	morsels := kernel.Coalesce(len(ranges), func(i int) int { return ranges[i].weight() }, grain)
	c.Morsels.Add(int64(len(morsels)))
	if st != nil {
		st.Morsels.Add(int64(len(morsels)))
	}
	results := make([][]frel.Tuple, len(morsels))
	err = runParallel(workers, len(morsels), func(i int) error {
		// A morsel spans consecutive atomic ranges, so its outer and inner
		// spans are contiguous and one cursor sweep covers them all.
		first, last := ranges[morsels[i].Lo], ranges[morsels[i].Hi-1]
		m := &sweepMorsel{
			outer: oTuples, inner: iTuples, oKeys: oKeys, iKeys: iKeys, tol: tol,
			oLo: first.oLo, oHi: last.oHi,
			start: first.iLo, end: first.iLo, iHi: last.iHi,
			loc: newBatchLocals(),
		}
		results[i] = body(m)
		m.loc.flush(c, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &partsBatchIterator{parts: results}, nil
}

// DefaultParallelism is the worker count used when a caller passes 0.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// morselGrain picks the morsel weight target: serial runs get one morsel
// (no scheduling overhead), parallel runs get roughly 16 morsels per
// worker with a floor that keeps per-morsel bookkeeping negligible.
func morselGrain(total, workers int) int {
	if workers <= 1 {
		return total + 1
	}
	g := total / (workers * 16)
	if g < 256 {
		g = 256
	}
	return g
}

// partRange is one atomic range: outer[oLo:oHi] can only join
// inner[iLo:iHi].
type partRange struct {
	oLo, oHi int
	iLo, iHi int
}

// weight is the range's work proxy for morsel coalescing.
func (p partRange) weight() int { return (p.oHi - p.oLo) + (p.iHi - p.iLo) }

// collectKeyed drains src, verifying the Definition 3.1 sort order and
// building the flat support-key column the cut finder and the morsel
// sweeps run on. It is the only place a merge operator reads a sorted
// input. Keys are copied from the producer when it serves them and
// computed otherwise. Reading stops at the first tuple whose support,
// shifted by lead, begins after reach.
func collectKeyed(src Source, idx int, side string, lead, reach float64) ([]frel.Tuple, []frel.SupportKey, error) {
	it, err := src.Open()
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	var tuples []frel.Tuple
	var keys []frel.SupportKey
	prevBegin := math.Inf(-1)
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		bk := batchKeys(it)
		for i, t := range b {
			var lo, hi float64
			if bk != nil {
				lo, hi = bk[i].Lo, bk[i].Hi
			} else {
				lo, hi = t.Values[idx].Num.Support()
			}
			if lo < prevBegin {
				return nil, nil, fmt.Errorf("exec: merge %s input is not sorted by the Definition 3.1 order", side)
			}
			if lo+lead > reach {
				return tuples, keys, nil
			}
			prevBegin = lo
			tuples = append(tuples, t)
			keys = append(keys, frel.SupportKey{Lo: lo, Hi: hi, D: t.D})
		}
	}
	return tuples, keys, it.Err()
}

// atomicCutsKeyed scans both begin-sorted key columns and returns the
// atomic ranges between the cut points (o, i) at which outer[:o] ∪
// inner[:i] is join-independent from the rest: every support interval
// consumed before the cut ends strictly before every interval after it
// begins. The inner intervals are widened by the band tolerance (an inner
// value s joins outer r when support(s ⊕ tol) intersects support(r)), so
// no band-join pair crosses a cut either. Identical outer supports never
// straddle a cut.
func atomicCutsKeyed(outer, inner []frel.SupportKey, tol fuzzy.Trapezoid) []partRange {
	var cuts [][2]int
	maxHi := math.Inf(-1)
	o, i := 0, 0
	for o < len(outer) || i < len(inner) {
		var lo, hi float64
		takeOuter := false
		if o < len(outer) {
			if i < len(inner) {
				takeOuter = outer[o].Lo <= inner[i].Lo+tol.A
			} else {
				takeOuter = true
			}
		}
		if takeOuter {
			lo, hi = outer[o].Lo, outer[o].Hi
		} else {
			lo, hi = inner[i].Lo+tol.A, inner[i].Hi+tol.D
		}
		// Everything consumed so far ends before this interval begins:
		// the ranges on either side cannot produce a joining pair.
		if (o > 0 || i > 0) && lo > maxHi {
			cuts = append(cuts, [2]int{o, i})
		}
		if hi > maxHi {
			maxHi = hi
		}
		if takeOuter {
			o++
		} else {
			i++
		}
	}
	ranges := make([]partRange, 0, len(cuts)+1)
	po, pi := 0, 0
	for _, c := range cuts {
		ranges = append(ranges, partRange{po, c[0], pi, c[1]})
		po, pi = c[0], c[1]
	}
	ranges = append(ranges, partRange{po, len(outer), pi, len(inner)})
	return ranges
}

// runParallel executes fn(0..n-1) on at most workers goroutines and
// returns the first error.
func runParallel(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// partsBatchIterator replays per-morsel result slices in morsel order, a
// BatchSize subslice at a time.
type partsBatchIterator struct {
	parts [][]frel.Tuple
	p, i  int
}

func (it *partsBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for it.p < len(it.parts) {
		part := it.parts[it.p]
		if it.i < len(part) {
			end := it.i + BatchSize
			if end > len(part) {
				end = len(part)
			}
			b := part[it.i:end]
			it.i = end
			return b, true
		}
		it.p++
		it.i = 0
	}
	return nil, false
}

func (it *partsBatchIterator) Err() error { return nil }
func (it *partsBatchIterator) Close()     {}

// checkJoinAttrs validates that both join attributes resolve to numeric
// attributes and returns their indexes.
func checkJoinAttrs(outer, inner Source, outerAttr, innerAttr string) (oi, ii int, err error) {
	oi, err = outer.Schema().Resolve(outerAttr)
	if err != nil {
		return 0, 0, err
	}
	ii, err = inner.Schema().Resolve(innerAttr)
	if err != nil {
		return 0, 0, err
	}
	if outer.Schema().Attrs[oi].Kind != frel.KindNumber || inner.Schema().Attrs[ii].Kind != frel.KindNumber {
		return 0, 0, fmt.Errorf("exec: merge-join attributes %s/%s must be numeric (the order ≼ requires continuous possibility distributions)", outerAttr, innerAttr)
	}
	return oi, ii, nil
}
