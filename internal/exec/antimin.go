package exec

import (
	"fmt"

	"repro/internal/frel"
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
	Counters             *Counters

	// Stats, when non-nil, receives the per-operator EXPLAIN ANALYZE
	// measures (see KernelMergeJoin.Stats for the counting conventions).
	Stats *OpStats

	oi, ii int
}

// NewMergeAntiMin builds the operator; inputs must be sorted like for
// KernelMergeJoin, and Penalty must evaluate to 1 for pairs whose
// join-attribute supports do not intersect.
func NewMergeAntiMin(outer, inner Source, outerAttr, innerAttr string, penalty JoinPred, counters *Counters) (*MergeAntiMin, error) {
	oi, ii, err := checkJoinAttrs(outer, inner, outerAttr, innerAttr)
	if err != nil {
		return nil, err
	}
	if counters == nil {
		counters = &Counters{}
	}
	return &MergeAntiMin{
		Outer: outer, Inner: inner,
		OuterAttr: outerAttr, InnerAttr: innerAttr,
		Penalty: penalty, Counters: counters,
		oi: oi, ii: ii,
	}, nil
}

// Schema implements Source: the output carries the outer tuples.
func (j *MergeAntiMin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source.
func (j *MergeAntiMin) Open() (BatchIterator, error) {
	outerIt, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	innerIt, err := j.Inner.Open()
	if err != nil {
		outerIt.Close()
		return nil, err
	}
	return &antiMinBatchIterator{
		j:     j,
		outer: outerIt,
		win:   newBatchWindow(innerIt, j.ii),
		loc:   newBatchLocals(),
	}, nil
}

type antiMinBatchIterator struct {
	j     *MergeAntiMin
	outer BatchIterator
	win   *batchWindow

	obatch []frel.Tuple
	okeys  []frel.SupportKey
	opos   int

	prevBegin float64
	seenAny   bool

	out []frel.Tuple
	loc batchLocals

	err  error
	done bool
}

func (it *antiMinBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	if it.err != nil || it.done {
		return nil, false
	}
	j := it.j
	if it.out == nil {
		it.out = make([]frel.Tuple, 0, BatchSize)
	}
	it.out = it.out[:0]
	for len(it.out) < BatchSize {
		for it.opos >= len(it.obatch) {
			b, ok := it.outer.NextBatch()
			if !ok {
				if e := it.outer.Err(); e != nil {
					it.err = e
				}
				it.done = true
				return it.finish()
			}
			it.obatch, it.okeys, it.opos = b, batchKeys(it.outer), 0
		}
		l := it.obatch[it.opos]
		var lo, hi float64
		if it.okeys != nil {
			k := it.okeys[it.opos]
			lo, hi = k.Lo, k.Hi
		} else {
			lo, hi = l.Values[j.oi].Num.Support()
		}
		it.opos++
		if it.seenAny && lo < it.prevBegin {
			it.err = fmt.Errorf("exec: merge anti-join outer input is not sorted by the Definition 3.1 order")
			return it.finish()
		}
		it.prevBegin, it.seenAny = lo, true
		it.win.advance(lo)
		it.win.extend(hi)
		if it.win.err != nil {
			it.err = it.win.err
			return it.finish()
		}
		d := l.D
		var rng int64
		active := it.win.active()
		for i := range active {
			e := &active[i]
			it.loc.cmp++
			if !(lo <= e.hi && e.lo <= hi) {
				continue // Penalty would be 1
			}
			rng++
			it.loc.stCmp++
			it.loc.stDeg++
			it.loc.deg++
			if g := j.Penalty(l, e.t); g < d {
				d = g
				if d == 0 {
					break
				}
			}
		}
		it.loc.observeRng(rng)
		if d > 0 {
			it.loc.tout++
			l.D = d
			it.out = append(it.out, l)
		}
	}
	it.loc.flush(j.Counters, j.Stats)
	return it.out, true
}

func (it *antiMinBatchIterator) finish() ([]frel.Tuple, bool) {
	it.loc.flush(it.j.Counters, it.j.Stats)
	if len(it.out) > 0 {
		return it.out, true
	}
	return nil, false
}

func (it *antiMinBatchIterator) Err() error { return it.err }

func (it *antiMinBatchIterator) Close() {
	it.win.close()
	it.outer.Close()
}

// NLAntiMin is the nested-loop fallback of the group-minimum anti-join
// (Queries JX′ and JALL′ when no merge range attribute is available, e.g.
// string link attributes): the inner relation is materialized once, and
// every outer tuple takes the minimum penalty over all inner tuples.
// Still an unnested evaluation — the inner block is not re-evaluated per
// outer tuple.
type NLAntiMin struct {
	Outer    Source
	Inner    []frel.Tuple
	Penalty  JoinPred
	Counters *Counters

	// Stats, when non-nil, receives the per-operator EXPLAIN ANALYZE
	// measures; every outer×inner pair counts as one comparison and one
	// degree evaluation.
	Stats *OpStats
}

// NewNLAntiMin builds the operator over a materialized inner relation.
func NewNLAntiMin(outer Source, inner []frel.Tuple, penalty JoinPred, counters *Counters) *NLAntiMin {
	if counters == nil {
		counters = &Counters{}
	}
	return &NLAntiMin{Outer: outer, Inner: inner, Penalty: penalty, Counters: counters}
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
		j.Counters.DegreeEvals.Add(evals)
		j.Counters.TuplesOut.Add(int64(len(it.out)))
		if st := j.Stats; st != nil {
			st.Comparisons.Add(evals)
			st.DegreeEvals.Add(evals)
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *nlAntiBatchIterator) Err() error { return it.outer.Err() }
func (it *nlAntiBatchIterator) Close()     { it.outer.Close() }
