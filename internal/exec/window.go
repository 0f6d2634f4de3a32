// Shared machinery of the merge-based operators: the Rng(r) window of
// buffered inner tuples and the batch-local work counters. Window entries
// carry precomputed support endpoints (or read them from a cached key
// column), and counters accumulate in locals and flush once per batch
// instead of one atomic add per pair.
package exec

import (
	"fmt"
	"math"

	"repro/internal/frel"
)

// batchLocals accumulates the per-pair work counters of one NextBatch call
// so the shared atomics are touched once per batch. The cmp/deg/tout
// fields mirror Counters, stCmp/stDeg and the rng fields mirror OpStats
// (see KernelMergeJoin.Stats for the two counting conventions).
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

// winEntry is one buffered inner tuple with its precomputed raw support
// interval on the join attribute.
type winEntry struct {
	t      frel.Tuple
	lo, hi float64
}

// batchWindow is the Rng(r) buffer of inner tuples of the extended
// merge-join (Section 3): for each outer tuple r only the inner tuples
// whose join-value supports intersect r's are examined. advance drops
// inner tuples whose support ends before r's begins (they precede every
// later range too), and extend stops at the first inner tuple whose
// support begins after r's ends, so the inner input is read exactly once.
// Support endpoints are computed once per tuple at pull time (or copied
// from the producer's key column).
type batchWindow struct {
	it  BatchIterator
	idx int

	buf   []winEntry
	start int

	cur     []frel.Tuple
	curKeys []frel.SupportKey
	pos     int

	pending    winEntry
	hasPending bool
	done       bool

	prevBegin float64
	seenAny   bool
	err       error
}

func newBatchWindow(it BatchIterator, idx int) *batchWindow {
	return &batchWindow{it: it, idx: idx}
}

// pull stages the next inner tuple, verifying sortedness.
func (w *batchWindow) pull() bool {
	if w.hasPending {
		return true
	}
	if w.done {
		return false
	}
	for w.pos >= len(w.cur) {
		b, ok := w.it.NextBatch()
		if !ok {
			if e := w.it.Err(); e != nil {
				w.err = e
			}
			w.done = true
			return false
		}
		w.cur, w.curKeys, w.pos = b, batchKeys(w.it), 0
	}
	t := w.cur[w.pos]
	var lo, hi float64
	if w.curKeys != nil {
		k := w.curKeys[w.pos]
		lo, hi = k.Lo, k.Hi
	} else {
		lo, hi = t.Values[w.idx].Num.Support()
	}
	w.pos++
	if w.seenAny && lo < w.prevBegin {
		w.err = fmt.Errorf("exec: merge-join inner input is not sorted by the Definition 3.1 order")
		w.done = true
		return false
	}
	w.prevBegin, w.seenAny = lo, true
	w.pending, w.hasPending = winEntry{t: t, lo: lo, hi: hi}, true
	return true
}

// advance drops the leading buffered tuples whose supports end before
// outerLo; they cannot intersect this or any later outer tuple.
func (w *batchWindow) advance(outerLo float64) {
	for w.start < len(w.buf) {
		if w.buf[w.start].hi >= outerLo {
			break
		}
		w.start++
	}
	if w.start > 256 && w.start*2 > len(w.buf) {
		n := copy(w.buf, w.buf[w.start:])
		w.buf = w.buf[:n]
		w.start = 0
	}
}

// extend pulls inner tuples into the buffer while their supports begin at
// or before outerHi (they may belong to Rng of the current outer tuple).
func (w *batchWindow) extend(outerHi float64) {
	for w.pull() {
		if w.pending.lo > outerHi {
			return
		}
		w.buf = append(w.buf, w.pending)
		w.hasPending = false
	}
}

func (w *batchWindow) active() []winEntry { return w.buf[w.start:] }

func (w *batchWindow) close() { w.it.Close() }

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
