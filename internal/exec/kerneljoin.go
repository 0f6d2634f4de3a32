// The extended merge-join of Section 3, compiled and morsel-scheduled.
// Both inputs are sorted on the join attribute by the Definition 3.1
// interval order ≼; for each outer tuple r only the inner tuples in
// Rng(r) — those whose join-value supports intersect r's — are examined.
//
// The sorted inputs are materialized into flat tuple and support-key
// columns and split into independent support-interval ranges: wherever
// every interval seen so far ends before the next interval begins, no join
// pair can cross, and the two sides of the cut join independently. The
// ranges are coalesced into small morsels that a pool of workers pulls
// from a shared queue. Each morsel runs a fused two-cursor loop directly
// over the flat columns — no per-pair virtual calls, counters in locals —
// and the morsel outputs are replayed in morsel order, so the answer is
// the same tuple sequence, with the same degrees, at every worker count.
//
// Morsels are small, and a worker that finishes one immediately pulls the
// next, so the tail of a skewed join is bounded by its largest single
// atomic range rather than by a fixed partition. Serial runs (Workers <=
// 1) use one morsel: the scheduler adds nothing when there is nobody to
// share with.
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

// kernelArenaChunk caps the value-arena growth unit of morsel emitters.
// Chunks start small and double up to this cap, so a low-fanout join
// allocates near its actual output size while a high-fanout join still
// amortizes to one allocation per 4*BatchSize values.
const kernelArenaChunk = 4 * BatchSize

// KernelMergeJoin is the extended merge-join on the fuzzy band condition
// outer.OuterAttr ≈ inner.InnerAttr. Both inputs must already be sorted on
// their join attribute by the Definition 3.1 order (use extsort.ByAttr).
//
// The emitted tuple is outer ++ inner with degree
// min(outer.D, inner.D, d(outer.X ≈ inner.X), residual(outer, inner)),
// where the residual conjuncts (e.g. the second join predicate of an
// unnested type J query) come from Extra, compiled into a
// kernel.PairProgram, or, when they have no kernel form, from the
// interpreted Residual closure.
type KernelMergeJoin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Extra                *kernel.PairProgram // nil or empty: no compiled residual
	Residual             JoinPred            // interpreted residual, used when Extra is nil or empty
	Counters             *Counters
	Workers              int

	// Tol generalizes the equi-join to a band join (Section 3 relates the
	// fuzzy equi-join to band joins): the join degree becomes the
	// similarity d(outer.X ≈ inner.X) under the tolerance distribution of
	// acceptable differences, and the Rng(r) cursor widens accordingly.
	// The zero value is Crisp(0): exact fuzzy equality.
	Tol fuzzy.Trapezoid

	// Stats, when non-nil, receives the EXPLAIN ANALYZE measures. Unlike
	// Counters.Comparisons (which counts every window tuple examined,
	// including dangling tuples), Stats.Comparisons and Stats.DegreeEvals
	// count only support-intersecting pairs — a morsel-invariant quantity
	// — and the Rng(r) scan length of each outer tuple is reported through
	// Stats.ObserveRng. The kernel counters (KernelTuples, Morsels) are
	// display-only.
	Stats *OpStats

	schema *frel.Schema
	oi, ii int
}

// NewKernelMergeJoin builds a band merge-join with the given worker count
// (0 = GOMAXPROCS) and compiled residual (nil for none). Crisp(0) as tol
// is exact fuzzy equality.
func NewKernelMergeJoin(outer, inner Source, outerAttr, innerAttr string, tol fuzzy.Trapezoid, extra *kernel.PairProgram, counters *Counters, workers int) (*KernelMergeJoin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if !tol.Valid() {
		return nil, fmt.Errorf("exec: invalid band tolerance %v", tol)
	}
	if counters == nil {
		counters = &Counters{}
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	return &KernelMergeJoin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Extra: extra, Counters: counters, Tol: tol, Workers: workers,
		schema: outer.Schema().Join(inner.Schema()),
		oi:     oi, ii: ii,
	}, nil
}

// Schema implements Source.
func (j *KernelMergeJoin) Schema() *frel.Schema { return j.schema }

// Open implements Source.
func (j *KernelMergeJoin) Open() (BatchIterator, error) {
	return j.openProjected(nil)
}

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

// openProjected opens the join with an optional pushed-down emit mask of
// indices into the concatenated outer ++ inner row (projection pushdown:
// only the projected values are written to the output arena). A nil mask
// emits the full row. The whole join runs eagerly: morsels are pulled off
// the shared queue by the worker pool and their outputs are replayed in
// morsel order, which is the serial emission order.
func (j *KernelMergeJoin) openProjected(emitIdx []int) (BatchIterator, error) {
	outer, oKeys, err := collectKeyed(j.Outer, j.oi, "outer")
	if err != nil {
		return nil, err
	}
	inner, iKeys, err := collectKeyed(j.Inner, j.ii, "inner")
	if err != nil {
		return nil, err
	}
	ranges := atomicCutsKeyed(oKeys, iKeys, j.Tol)
	grain := morselGrain(len(outer)+len(inner), j.Workers)
	morsels := kernel.Coalesce(len(ranges), func(i int) int { return ranges[i].weight() }, grain)
	j.Counters.Morsels.Add(int64(len(morsels)))
	j.Counters.KernelTuples.Add(int64(len(outer)))
	if st := j.Stats; st != nil {
		st.Morsels.Add(int64(len(morsels)))
		st.KernelTuples.Add(int64(len(outer)))
	}
	results := make([][]frel.Tuple, len(morsels))
	tolZero := j.Tol == (fuzzy.Trapezoid{})
	extra := j.Extra
	if extra != nil && extra.Len() == 0 {
		extra = nil
	}
	err = runParallel(j.Workers, len(morsels), func(m int) error {
		// A morsel spans consecutive atomic ranges, so its outer and inner
		// spans are contiguous and one two-cursor sweep covers them all:
		// the window empties at every cut by construction.
		oLo, oHi := ranges[morsels[m].Lo].oLo, ranges[morsels[m].Hi-1].oHi
		iLo, iHi := ranges[morsels[m].Lo].iLo, ranges[morsels[m].Hi-1].iHi
		loc := newBatchLocals()
		var out []frel.Tuple
		var arena []frel.Value
		emitW := len(j.schema.Attrs)
		if emitIdx != nil {
			emitW = len(emitIdx)
		}
		nOuter := len(j.Outer.Schema().Attrs)
		start, end := iLo, iLo
		for o := oLo; o < oHi; o++ {
			lo, hi := oKeys[o].Lo, oKeys[o].Hi
			// Advance past buffered inner tuples whose widened supports end
			// before this outer begins; admit those beginning at or before
			// its end (batchWindow.advance/extend over the flat key
			// column, with the band shift applied).
			for start < end && iKeys[start].Hi+j.Tol.D < lo {
				start++
			}
			for end < iHi && iKeys[end].Lo+j.Tol.A <= hi {
				end++
			}
			lX := outer[o].Values[j.oi].Num
			oD := oKeys[o].D
			var rng int64
			for k := start; k < end; k++ {
				loc.cmp++
				// Support pretest on the flat key column, bit-identical to
				// lX.Intersects(Add(s, Tol)).
				if !(lo <= iKeys[k].Hi+j.Tol.D && iKeys[k].Lo+j.Tol.A <= hi) {
					continue // dangling tuple inside the range
				}
				rng++
				loc.stCmp++
				loc.stDeg++
				loc.deg++
				sX := inner[k].Values[j.ii].Num
				if !tolZero {
					sX = fuzzy.Add(sX, j.Tol)
				}
				d := fuzzy.Eq(lX, sX)
				if oD < d {
					d = oD
				}
				if iKeys[k].D < d {
					d = iKeys[k].D
				}
				if d > 0 && extra != nil {
					loc.deg++
					loc.stDeg++
					g, ev := extra.EvalAnd(outer[o].Values, inner[k].Values)
					loc.deg += ev
					if g < d {
						d = g
					}
				} else if d > 0 && j.Residual != nil {
					loc.deg++
					loc.stDeg++
					if g := j.Residual(outer[o], inner[k]); g < d {
						d = g
					}
				}
				if d <= 0 {
					continue
				}
				loc.tout++
				if len(arena)+emitW > cap(arena) {
					n := 2 * cap(arena)
					if n > kernelArenaChunk {
						n = kernelArenaChunk
					}
					if n < 16*emitW {
						n = 16 * emitW
					}
					arena = make([]frel.Value, 0, n)
				}
				off := len(arena)
				if emitIdx != nil {
					for _, i := range emitIdx {
						if i < nOuter {
							arena = append(arena, outer[o].Values[i])
						} else {
							arena = append(arena, inner[k].Values[i-nOuter])
						}
					}
				} else {
					arena = append(arena, outer[o].Values...)
					arena = append(arena, inner[k].Values...)
				}
				out = append(out, frel.Tuple{Values: arena[off:len(arena):len(arena)], D: d})
			}
			loc.observeRng(rng)
		}
		loc.flush(j.Counters, j.Stats)
		results[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &partsBatchIterator{parts: results}, nil
}

// DefaultParallelism is the worker count used when a caller passes 0.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

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
// sweeps run on. Keys are copied from the producer when it serves them
// and computed otherwise.
func collectKeyed(src Source, idx int, side string) ([]frel.Tuple, []frel.SupportKey, error) {
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
				return nil, nil, fmt.Errorf("exec: merge-join %s input is not sorted by the Definition 3.1 order", side)
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
// no band-join pair crosses a cut either.
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
