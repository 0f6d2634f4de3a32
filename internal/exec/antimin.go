package exec

import (
	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// MergeAntiMin evaluates the group-minimum anti-join pattern produced by
// unnesting the set-exclusion (JX, Section 5) and universally quantified
// (JALL, Section 7) queries: for each outer tuple r it emits r with degree
//
//	d′_r = min( r.D, min over s in Rng(r) of Penalty(r, s) ),
//
// where Penalty returns 1 − min(µ_S(s), …) per the rewrite. Inner tuples
// outside Rng(r) satisfy Penalty = 1 by construction — their equi-join
// degree is 0 — so scanning only Rng(r) with the merge cursor computes the
// same minimum the GROUPBY R.K / MIN(D) query computes over all of S.
// Outer tuples whose final degree is 0 are dropped.
type MergeAntiMin struct {
	Outer, Inner         Source
	OuterAttr, InnerAttr string
	Penalty              JoinPred

	// Stats is the operator's plan node, counted like
	// KernelMergeJoin.Stats: every window tuple examined is a comparison,
	// every support-intersecting pair a degree evaluation (the penalty's
	// conjuncts count themselves).
	Stats *OpStats

	oi, ii  int
	workers int
}

// NewMergeAntiMin builds the operator with the given worker count (0 =
// GOMAXPROCS); inputs must be sorted like for KernelMergeJoin, and Penalty
// must evaluate to 1 for pairs whose join-attribute supports do not
// intersect. The operator counts into st.
func NewMergeAntiMin(outer, inner Source, outerAttr, innerAttr string, penalty JoinPred, st *OpStats, workers int) (*MergeAntiMin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	return &MergeAntiMin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Penalty: penalty, Stats: st, workers: workers,
		oi: oi, ii: ii,
	}, nil
}

// Schema implements Source: the output carries the outer tuples.
func (j *MergeAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source: each morsel of the merge sweep takes, per outer
// tuple, the minimum penalty over its Rng(r) window.
func (j *MergeAntiMin) Open() (BatchIterator, error) {
	return runSweep(j.Outer, j.Inner, j.oi, j.ii, fuzzy.Trapezoid{}, j.workers, j.Stats, func(m *sweepMorsel) []frel.Tuple {
		loc := &m.loc
		var out []frel.Tuple
		for o := m.oLo; o < m.oHi; o++ {
			lo, hi := m.oKeys[o].Lo, m.oKeys[o].Hi
			start, end := m.window(lo, hi)
			l := m.outer[o]
			d := l.D
			var rng int64
			for k := start; k < end; k++ {
				loc.cmp++
				if !m.hits(k, lo, hi) {
					continue // Penalty would be 1
				}
				rng++
				loc.deg++
				if g := j.Penalty(l, m.inner[k]); g < d {
					d = g
					if d == 0 {
						break
					}
				}
			}
			loc.observeRng(rng)
			if d > 0 {
				l.D = d
				out = append(out, l)
			}
		}
		return out
	})
}

// NLAntiMin is the nested-loop fallback of the group-minimum anti-join
// (Queries JX′ and JALL′ when no merge range attribute is available, e.g.
// string link attributes): the inner relation is materialized once, and
// every outer tuple takes the minimum penalty over all inner tuples.
// Still an unnested evaluation — the inner block is not re-evaluated per
// outer tuple.
type NLAntiMin struct {
	Outer   Source
	Inner   []frel.Tuple
	Penalty JoinPred

	// Stats is the operator's plan node: every outer×inner pair examined
	// counts as one comparison and one degree evaluation (the penalty's
	// conjuncts count themselves).
	Stats *OpStats
}

// NewNLAntiMin builds the operator over a materialized inner relation,
// counting into st.
func NewNLAntiMin(outer Source, inner []frel.Tuple, penalty JoinPred, st *OpStats) *NLAntiMin {
	return &NLAntiMin{Outer: outer, Inner: inner, Penalty: penalty, Stats: st}
}

// Schema implements Source; the output carries the outer schema.
func (j *NLAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source.
func (j *NLAntiMin) Open() (BatchIterator, error) {
	it, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	return &nlAntiBatchIterator{j: j, outer: it}, nil
}

type nlAntiBatchIterator struct {
	j     *NLAntiMin
	outer BatchIterator
	out   []frel.Tuple
}

func (it *nlAntiBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	j := it.j
	for {
		b, ok := it.outer.NextBatch()
		if !ok {
			return nil, false
		}
		it.out = it.out[:0]
		var evals int64
		for _, l := range b {
			d := l.D
			for _, r := range j.Inner {
				evals++
				if g := j.Penalty(l, r); g < d {
					d = g
					if d == 0 {
						break
					}
				}
			}
			if d > 0 {
				l.D = d
				it.out = append(it.out, l)
			}
		}
		j.Stats.Comparisons.Add(evals)
		j.Stats.DegreeEvals.Add(evals)
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *nlAntiBatchIterator) Err() error { return it.outer.Err() }
func (it *nlAntiBatchIterator) Close()     { it.outer.Close() }
