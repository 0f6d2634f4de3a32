// The extended merge-join of Section 3, compiled and morsel-scheduled.
// Both inputs are sorted on the join attribute by the Definition 3.1
// interval order ≼; for each outer tuple r only the inner tuples in
// Rng(r) — those whose join-value supports intersect r's — are examined.
//
// The sweep itself (flat key columns, atomic cuts, morsels, the Rng(r)
// cursor) is runSweep in window.go; this file holds only the per-pair
// body: a fused loop over the flat columns — no per-pair virtual calls,
// counters in locals — that writes the joined rows into a value arena.
package exec

import (
	"fmt"

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

// openProjected opens the join with an optional pushed-down emit mask of
// indices into the concatenated outer ++ inner row (projection pushdown:
// only the projected values are written to the output arena). A nil mask
// emits the full row. The whole join runs eagerly: morsels are pulled off
// the shared queue by the worker pool and their outputs are replayed in
// morsel order, which is the serial emission order.
func (j *KernelMergeJoin) openProjected(emitIdx []int) (BatchIterator, error) {
	tolZero := j.Tol == (fuzzy.Trapezoid{})
	extra := j.Extra
	if extra != nil && extra.Len() == 0 {
		extra = nil
	}
	emitW := len(j.schema.Attrs)
	if emitIdx != nil {
		emitW = len(emitIdx)
	}
	nOuter := len(j.Outer.Schema().Attrs)
	return runSweep(j.Outer, j.Inner, j.oi, j.ii, j.Tol, j.Workers, j.Counters, j.Stats, func(m *sweepMorsel) []frel.Tuple {
		j.Counters.KernelTuples.Add(int64(m.oHi - m.oLo))
		if st := j.Stats; st != nil {
			st.KernelTuples.Add(int64(m.oHi - m.oLo))
		}
		loc := &m.loc
		outer, inner, iKeys := m.outer, m.inner, m.iKeys
		var out []frel.Tuple
		var arena []frel.Value
		for o := m.oLo; o < m.oHi; o++ {
			lo, hi := m.oKeys[o].Lo, m.oKeys[o].Hi
			start, end := m.window(lo, hi)
			lX := outer[o].Values[j.oi].Num
			oD := m.oKeys[o].D
			var rng int64
			for k := start; k < end; k++ {
				loc.cmp++
				if !m.hits(k, lo, hi) {
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
		return out
	})
}
