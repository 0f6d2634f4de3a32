package exec

import (
	"fmt"
	"math"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

// GroupAggJoin is the sorted evaluation of the unnested type JA query
// (Query JA′ / Query COUNT′, Section 6): the outer relation, sorted on the
// correlation attribute U, is merged with the inner relation, sorted on V.
// For each distinct outer value u the operator builds the fuzzy value set
//
//	T′(u) = { z : µ(z) = max over s with s.Z = z of min(µ_S(s), d(s.V op2 u)) > 0 },
//
// applies the aggregate to it (the tuple (u, A′(u)) of the paper's T2),
// and emits every outer tuple r with that u at degree
//
//	min(r.D, D(A′(u)), d(r.Y op1 A′(u))),     with D(A′(u)) = 1,
//
// or, when T′(u) is empty: at degree min(r.D, d(r.Y op1 0)) if the
// aggregate is COUNT (the left outer join IF-THEN-ELSE arm of Query
// COUNT′), and not at all otherwise (A′(u) is NULL).
//
// When Op2 is equality the operator runs on the merge sweep: each morsel
// builds T′(u) from the Rng(u) window once per run of identical outer
// values, which must be adjacent, so sort the outer input with
// extsort.ByAttrTotal (identical supports never straddle an atomic cut,
// so no run is split between morsels). For other correlation operators
// the inner is materialized once and scanned per distinct u.
type GroupAggJoin struct {
	Outer, Inner Source

	OuterUAttr string // R.U, the correlated attribute of the outer block
	InnerVAttr string // S.V, the correlated attribute of the inner block
	Op2        fuzzy.Op

	InnerZAttr string // S.Z, the aggregated attribute
	Agg        fuzzy.AggFunc

	OuterYAttr string // R.Y, compared against the aggregate
	Op1        fuzzy.Op

	Counters *Counters

	// Stats, when non-nil, receives the per-operator EXPLAIN ANALYZE
	// measures (see KernelMergeJoin.Stats for the counting conventions);
	// the Rng observations are the per-group candidate scan lengths.
	Stats *OpStats

	ui, vi, zi, yi int
	workers        int
}

// NewGroupAggJoin validates attribute references and kinds; workers is
// the merge sweep's worker count (0 = GOMAXPROCS).
func NewGroupAggJoin(outer, inner Source, outerU, innerV string, op2 fuzzy.Op, innerZ string, agg fuzzy.AggFunc, outerY string, op1 fuzzy.Op, counters *Counters, workers int) (*GroupAggJoin, error) {
	ui, vi, err := checkJoinAttrs(outer, inner, outerU, innerV)
	if err != nil {
		return nil, err
	}
	zi, err := inner.Schema().Resolve(innerZ)
	if err != nil {
		return nil, err
	}
	if agg != fuzzy.AggCount && inner.Schema().Attrs[zi].Kind != frel.KindNumber {
		return nil, fmt.Errorf("exec: aggregate %v requires a numeric attribute, %s is %v", agg, innerZ, inner.Schema().Attrs[zi].Kind)
	}
	yi, err := outer.Schema().Resolve(outerY)
	if err != nil {
		return nil, err
	}
	if outer.Schema().Attrs[yi].Kind != frel.KindNumber {
		return nil, fmt.Errorf("exec: compared attribute %s must be numeric", outerY)
	}
	if counters == nil {
		counters = &Counters{}
	}
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	return &GroupAggJoin{
		Outer: outer, Inner: inner,
		OuterUAttr: outerU, InnerVAttr: innerV, Op2: op2,
		InnerZAttr: innerZ, Agg: agg,
		OuterYAttr: outerY, Op1: op1,
		Counters: counters, workers: workers,
		ui: ui, vi: vi, zi: zi, yi: yi,
	}, nil
}

// Schema implements Source: the output carries the outer tuples with
// adjusted degrees.
func (j *GroupAggJoin) Schema() *frel.Schema { return j.Outer.Schema() }

// Open implements Source.
func (j *GroupAggJoin) Open() (BatchIterator, error) {
	if j.Op2 == fuzzy.OpEq {
		return runSweep(j.Outer, j.Inner, j.ui, j.vi, fuzzy.Trapezoid{}, j.workers, j.Counters, j.Stats, func(m *sweepMorsel) []frel.Tuple {
			return j.emit(m.outer[m.oLo:m.oHi], m.oKeys[m.oLo:m.oHi], &m.loc, func(lo, hi float64, acc func(frel.Tuple)) {
				start, end := m.window(lo, hi)
				for k := start; k < end; k++ {
					m.loc.cmp++
					if m.hits(k, lo, hi) {
						acc(m.inner[k])
					}
				}
			})
		})
	}
	// Non-equality correlation: materialize the inner once and scan all
	// of it per group, in a single part.
	outer, oKeys, err := collectKeyed(j.Outer, j.ui, "outer", 0, math.Inf(1))
	if err != nil {
		return nil, err
	}
	inner, err := Collect(j.Inner)
	if err != nil {
		return nil, err
	}
	loc := newBatchLocals()
	out := j.emit(outer, oKeys, &loc, func(_, _ float64, acc func(frel.Tuple)) {
		for _, s := range inner.Tuples {
			loc.cmp++
			acc(s)
		}
	})
	loc.flush(j.Counters, j.Stats)
	return &partsBatchIterator{parts: [][]frel.Tuple{out}}, nil
}

// emit evaluates the outer tuples of one part. For each run of identical
// outer values u it builds T′(u) from the inner tuples scan(u's support)
// passes to acc, and applies the aggregate; every outer tuple of the run
// is then compared against A′(u).
func (j *GroupAggJoin) emit(outer []frel.Tuple, keys []frel.SupportKey, loc *batchLocals, scan func(lo, hi float64, acc func(frel.Tuple))) []frel.Tuple {
	var out []frel.Tuple
	var aggVal fuzzy.Trapezoid
	aggOK := false
	for o, r := range outer {
		u := r.Values[j.ui]
		if o == 0 || !outer[o-1].Values[j.ui].Identical(u) {
			set := newMemberSet()
			var rng int64
			scan(keys[o].Lo, keys[o].Hi, func(s frel.Tuple) {
				rng++
				loc.stCmp++
				loc.stDeg++
				loc.deg++
				d := frel.Degree(j.Op2, s.Values[j.vi], u)
				if s.D < d {
					d = s.D
				}
				if d > 0 {
					set.add(s.Values[j.zi], d)
				}
			})
			loc.observeRng(rng)
			if j.Agg == fuzzy.AggCount {
				// COUNT of an empty T′(u) is 0: comparing r.Y against
				// Crisp(0) is exactly the ELSE arm of Query COUNT′'s
				// IF-THEN-ELSE.
				aggVal, aggOK = fuzzy.Crisp(float64(set.len())), true
			} else {
				aggVal, aggOK = fuzzy.Aggregate(j.Agg, set.members)
			}
		}
		if !aggOK {
			continue // A′(u) is NULL and the aggregate is not COUNT
		}
		loc.stDeg++
		loc.deg++
		d := fuzzy.Degree(j.Op1, r.Values[j.yi].Num, aggVal)
		if r.D < d {
			d = r.D
		}
		if d > 0 {
			loc.tout++
			r.D = d
			out = append(out, r)
		}
	}
	return out
}

// memberSet accumulates a fuzzy value set deduplicated by value identity,
// keeping the maximum degree per value (Section 4's temporary-relation
// rule), in first-seen order, so the member list an aggregate receives is
// deterministic (fuzzy.Aggregate itself sums SUM/AVG members in corner
// order, whatever order they arrive in).
type memberSet struct {
	idx     map[string]int
	members []fuzzy.Member
}

func newMemberSet() *memberSet { return &memberSet{idx: make(map[string]int)} }

func (ms *memberSet) add(v frel.Value, mu float64) {
	k := v.Key()
	if i, ok := ms.idx[k]; ok {
		if mu > ms.members[i].Mu {
			ms.members[i].Mu = mu
		}
		return
	}
	ms.idx[k] = len(ms.members)
	ms.members = append(ms.members, fuzzy.Member{Value: v.Num, Mu: mu})
}

func (ms *memberSet) len() int { return len(ms.members) }

// AggItem is one aggregate column of a GroupAgg.
type AggItem struct {
	Agg fuzzy.AggFunc
	Ref string
}

// GroupAgg is a hash group-by with fuzzy aggregates, used for top-level
// GROUPBY/HAVING clauses. Groups are keyed by value identity of the
// grouping attributes. Within a group, each distinct value of an
// aggregated attribute belongs to the group's fuzzy value set with the
// maximum degree of the tuples carrying it, and the Section 6 aggregate
// semantics apply to that set. The output tuple is (group values,
// aggregate results) with degree max over the group's tuple degrees
// (fuzzy OR).
type GroupAgg struct {
	Src       Source
	GroupRefs []string
	Items     []AggItem

	schema   *frel.Schema
	groupIdx []int
	itemIdx  []int
}

// NewGroupAgg builds a group-by; the output schema is the grouping
// attributes followed by one numeric column per aggregate item, named
// "AGG(ref)".
func NewGroupAgg(src Source, groupRefs []string, items []AggItem) (*GroupAgg, error) {
	gschema, gidx, err := src.Schema().Project(groupRefs)
	if err != nil {
		return nil, err
	}
	out := gschema.Clone()
	out.Name = ""
	itemIdx := make([]int, len(items))
	for i, item := range items {
		zi, err := src.Schema().Resolve(item.Ref)
		if err != nil {
			return nil, err
		}
		if item.Agg != fuzzy.AggCount && src.Schema().Attrs[zi].Kind != frel.KindNumber {
			return nil, fmt.Errorf("exec: aggregate %v requires a numeric attribute, %s is %v", item.Agg, item.Ref, src.Schema().Attrs[zi].Kind)
		}
		itemIdx[i] = zi
		out.Attrs = append(out.Attrs, frel.Attribute{
			Name: fmt.Sprintf("%s(%s)", item.Agg, src.Schema().Qualified(zi)),
			Kind: frel.KindNumber,
		})
	}
	return &GroupAgg{Src: src, GroupRefs: groupRefs, Items: items, schema: out, groupIdx: gidx, itemIdx: itemIdx}, nil
}

// Schema implements Source.
func (g *GroupAgg) Schema() *frel.Schema { return g.schema }

// Open implements Source: the groups are built eagerly and replayed.
func (g *GroupAgg) Open() (BatchIterator, error) {
	it, err := g.Src.Open()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	type group struct {
		key     frel.Tuple
		degree  float64
		members []*memberSet // one value set per agg item
	}
	groups := make(map[string]*group)
	var order []string
	for {
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		for _, t := range b {
			kt := t.Project(g.groupIdx)
			k := kt.Key()
			grp, ok := groups[k]
			if !ok {
				grp = &group{key: kt, members: make([]*memberSet, len(g.Items))}
				for i := range grp.members {
					grp.members[i] = newMemberSet()
				}
				groups[k] = grp
				order = append(order, k)
			}
			if t.D > grp.degree {
				grp.degree = t.D
			}
			for i, zi := range g.itemIdx {
				grp.members[i].add(t.Values[zi], t.D)
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}

	out := make([]frel.Tuple, 0, len(order))
	for _, k := range order {
		grp := groups[k]
		vals := append([]frel.Value(nil), grp.key.Values...)
		skip := false
		for i, item := range g.Items {
			a, ok := fuzzy.Aggregate(item.Agg, grp.members[i].members)
			if !ok {
				skip = true
				break
			}
			vals = append(vals, frel.Num(a))
		}
		if skip {
			continue
		}
		out = append(out, frel.Tuple{Values: vals, D: grp.degree})
	}
	return &memBatchIterator{tuples: out}, nil
}
