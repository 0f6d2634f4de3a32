package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
	"repro/internal/plan"
	"repro/internal/storage"
)

// This file is the physical compilation stage of the planner: it turns a
// planned query (internal/plan) into the existing exec operators and runs
// it. The plan records every decision — join order, merge vs nested-loop
// steps, predicate assignments — so compilation replays them without
// re-deciding; only physical concerns (sources, linguistic terms, the
// sort-order cache, parallelism, the operators' statistics nodes) live
// here.

// execPlan compiles and runs a planned query.
func (e *Env) execPlan(p *plan.Plan) (*frel.Relation, error) {
	defer e.dropStatementRuns()
	if p.Strategy == StrategyNaive {
		return e.execNaive(p.Query)
	}
	switch body := p.Proj().Input.(type) {
	case *plan.Join:
		return e.execJoinPlan(p, body)
	case *plan.AntiJoin:
		return e.execAntiPlan(p, body)
	case *plan.GroupAgg:
		return e.execGroupAggPlan(p, body)
	case *plan.UncorrSub:
		return e.execUncorrPlan(p, body)
	default:
		return e.execNaive(p.Query)
	}
}

// compileLeaf compiles a plan leaf (Scan or Filter-over-Scan) into a
// stated source. base is the heap file a plain scan reads, the key of its
// sort-order cache entries; it is nil for a filtered leaf, whose sorted
// order is not the base relation's.
func (e *Env) compileLeaf(nd plan.Node) (src *exec.Stated, base *storage.HeapFile, err error) {
	switch n := nd.(type) {
	case *plan.Scan:
		s, h, err := e.source(n.Table)
		if err != nil {
			return nil, nil, err
		}
		return e.stated("scan", n.Table.Binding(), s), h, nil
	case *plan.Filter:
		sc, ok := n.Input.(*plan.Scan)
		if !ok {
			return nil, nil, fmt.Errorf("core: cannot compile plan filter over %T", n.Input)
		}
		s, _, err := e.source(sc.Table)
		if err != nil {
			return nil, nil, err
		}
		scan := e.stated("scan", sc.Table.Binding(), s)
		if n.Fused {
			// Specialize the whole chain into one fused kernel loop. A
			// bridge error (an operand form the kernel cannot express)
			// falls through to the interpreted chain, which re-raises any
			// genuine resolution error itself.
			if prog, kerr := e.compileKernelProgram(scan.Schema(), n.Preds); kerr == nil {
				node := exec.NewOpStats("kernel(fused)", n.Label)
				return e.attach(node, exec.NewFusedFilter(scan, prog, 0, node), scan), nil, nil
			}
		}
		src, err := e.filter(n.Label, scan, n.Preds)
		return src, nil, err
	}
	return nil, nil, fmt.Errorf("core: cannot compile plan leaf %T", nd)
}

// filter compiles preds into a chain of interpreted filters over in,
// counted by one "filter" node.
func (e *Env) filter(label string, in *exec.Stated, preds []fsql.Predicate) (*exec.Stated, error) {
	node := exec.NewOpStats("filter", label)
	var src exec.Source = in
	for _, pr := range preds {
		pred, err := e.compilePred(in.Schema(), pr, node)
		if err != nil {
			return nil, err
		}
		src = exec.NewFilter(src, pred)
	}
	return e.attach(node, src, in), nil
}

// execJoinPlan runs a flat join plan (strategies flat and chain-join):
// the leaves are compiled with their pushed-down filters, the recorded
// left-deep steps replayed — extended merge-join or block nested-loop as
// the cost model chose — and the answer projected with max-degree
// duplicate elimination and thresholded.
func (e *Env) execJoinPlan(p *plan.Plan, j *plan.Join) (*frel.Relation, error) {
	if j.Err != nil {
		return nil, j.Err
	}
	proj := p.Proj()
	grouped := hasAggItems(proj.Items) || len(proj.GroupBy) > 0
	filtered := make([]*exec.Stated, len(j.Inputs))
	bases := make([]*storage.HeapFile, len(j.Inputs))
	for i, in := range j.Inputs {
		src, base, err := e.compileLeaf(in)
		if err != nil {
			return nil, err
		}
		filtered[i], bases[i] = src, base
	}

	cur, curBase := filtered[j.Order[0]], bases[j.Order[0]]
	for si, step := range j.Steps {
		next := filtered[step.Next]
		extraPreds := make([]fsql.Predicate, 0, len(step.Extras))
		for _, pi := range step.Extras {
			extraPreds = append(extraPreds, j.JoinPreds[pi].Pred)
		}
		compileExtras := func(node *exec.OpStats) (exec.JoinPred, error) {
			var extras []exec.JoinPred
			for _, pr := range extraPreds {
				jp, err := e.compileJoinPred(cur.Schema(), next.Schema(), pr, node)
				if err != nil {
					return nil, err
				}
				extras = append(extras, jp)
			}
			return andJoinPreds(extras), nil
		}

		if step.Merge {
			sortedCur, err := e.sortSource(cur, curBase, step.LeftAttr, false)
			if err != nil {
				return nil, err
			}
			sortedNext, err := e.sortSource(next, bases[step.Next], step.RightAttr, false)
			if err != nil {
				return nil, err
			}
			node := exec.NewOpStats("merge-join", step.LeftAttr+" = "+step.RightAttr)
			// Residual conjuncts become a pair program where they have a
			// kernel form. Otherwise (not kernel-eligible, or a bridge
			// error) the same morsel sweep evaluates them through the
			// interpreted closures, which re-raise any genuine resolution
			// error themselves.
			var pp *kernel.PairProgram
			var residual exec.JoinPred
			if plan.KernelEligible(extraPreds) {
				if prog, kerr := e.compilePairProgram(cur.Schema(), next.Schema(), extraPreds); kerr == nil {
					pp = prog
				}
			}
			if pp == nil {
				if residual, err = compileExtras(node); err != nil {
					return nil, err
				}
			}
			kj, err := exec.NewKernelMergeJoin(sortedCur, sortedNext, step.LeftAttr, step.RightAttr, step.Tol, pp, node, e.workers())
			if err != nil {
				return nil, err
			}
			kj.Residual = residual
			// Projection pushdown: when the answer's projection sits
			// directly on this join, the join writes only the projected
			// values.
			if si == len(j.Steps)-1 && len(j.Const) == 0 && !grouped {
				if err := kj.Emit(itemRefs(proj.Items)); err != nil {
					return nil, err
				}
			}
			cur = e.attach(node, kj, sortedCur, sortedNext)
		} else {
			node := exec.NewOpStats("nl-join", "")
			on, err := compileExtras(node)
			if err != nil {
				return nil, err
			}
			if on == nil {
				on = func(l, r frel.Tuple) float64 { return 1 }
			}
			cur = e.attach(node, exec.NewBlockNLJoin(cur, next, on, e.NLBlockBytes, node), cur, next)
		}
		curBase = nil
	}

	out := cur
	if len(j.Const) > 0 {
		var err error
		if out, err = e.filter("constant predicates", cur, j.Const); err != nil {
			return nil, err
		}
	}

	// Final projection / grouping.
	if grouped {
		node := exec.NewOpStats("group", "")
		src, cols, err := e.groupBy(proj.Items, proj.GroupBy, proj.Having, out, node)
		if err != nil {
			return nil, err
		}
		rel, err := selectOrder(e.attach(node, src, out), cols)
		if err != nil {
			return nil, err
		}
		pruned, err := finalizeAnswer(rel, p.Root.Shape)
		if err != nil {
			return nil, err
		}
		node.Pruned.Add(int64(pruned))
		return rel, nil
	}
	if len(proj.Having) > 0 {
		return nil, fmt.Errorf("core: HAVING requires GROUPBY or aggregates")
	}
	return e.finishProject(out, proj.Items, p.Root.Shape)
}

// execAntiPlan runs the group-minimum anti-join of Queries JX′ and JALL′:
//
//	JX:   1 − min(µS(s), d(corr…), d(r.Y = s.Z))
//	JALL: 1 − min(µS(s), d(corr…), 1 − d(r.Y op s.Z))
//
// µS(s) and the inner block's local predicates arrive via the
// pre-filtered inner tuple degree.
func (e *Env) execAntiPlan(p *plan.Plan, a *plan.AntiJoin) (*frel.Relation, error) {
	outer, outerBase, err := e.compileLeaf(a.Outer)
	if err != nil {
		return nil, err
	}
	inner, innerBase, err := e.compileLeaf(a.Inner)
	if err != nil {
		return nil, err
	}
	node := exec.NewOpStats("nl-anti-join", "")
	if a.RangeFound {
		node = exec.NewOpStats("merge-anti-join", a.RangeOuter+" = "+a.RangeInner)
	}
	var terms []exec.JoinPred
	for _, pr := range a.Corr {
		jp, err := e.compileJoinPred(outer.Schema(), inner.Schema(), pr, node)
		if err != nil {
			return nil, err
		}
		terms = append(terms, jp)
	}
	if a.HasLink {
		linkJP, err := e.compileJoinPred(outer.Schema(), inner.Schema(), a.Link, node)
		if err != nil {
			return nil, err
		}
		if a.Mode == plan.AntiAll {
			orig := linkJP
			linkJP = func(l, r frel.Tuple) float64 { return 1 - orig(l, r) }
		}
		terms = append(terms, linkJP)
	}
	penalty := func(l, r frel.Tuple) float64 {
		d := r.D
		for _, t := range terms {
			if g := t(l, r); g < d {
				d = g
				if d == 0 {
					break
				}
			}
		}
		return 1 - d
	}

	var result *exec.Stated
	if a.RangeFound {
		sortedOuter, err := e.sortSource(outer, outerBase, a.RangeOuter, false)
		if err != nil {
			return nil, err
		}
		sortedInner, err := e.sortSource(inner, innerBase, a.RangeInner, false)
		if err != nil {
			return nil, err
		}
		am, err := exec.NewMergeAntiMin(sortedOuter, sortedInner, a.RangeOuter, a.RangeInner, penalty, node, e.workers())
		if err != nil {
			return nil, err
		}
		result = e.attach(node, am, sortedOuter, sortedInner)
	} else {
		// No usable merge order (e.g. string attributes): unnested
		// anti-join by materializing the inner once.
		innerRel, err := exec.Collect(inner)
		if err != nil {
			return nil, err
		}
		result = e.attach(node, exec.NewNLAntiMin(outer, innerRel.Tuples, penalty, node), outer, inner)
	}
	return e.finishProject(result, p.Proj().Items, p.Root.Shape)
}

// execGroupAggPlan runs the sorted group-aggregate join of Queries JA′
// and COUNT′ (Theorem 6.1).
func (e *Env) execGroupAggPlan(p *plan.Plan, g *plan.GroupAgg) (*frel.Relation, error) {
	outer, outerBase, err := e.compileLeaf(g.Outer)
	if err != nil {
		return nil, err
	}
	inner, innerBase, err := e.compileLeaf(g.Inner)
	if err != nil {
		return nil, err
	}
	if g.IsNear {
		shifted, err := newShiftSource(inner, g.VRef, g.NearShift)
		if err != nil {
			return nil, err
		}
		inner, innerBase = e.stated("shift", g.VRef, shifted, inner), nil
	}
	sortedOuter, err := e.sortSource(outer, outerBase, g.URef, true)
	if err != nil {
		return nil, err
	}
	if g.Op2 == fuzzy.OpEq {
		inner, err = e.sortSource(inner, innerBase, g.VRef, false)
		if err != nil {
			return nil, err
		}
	}
	node := exec.NewOpStats("group-agg-join", fmt.Sprintf("%v(%s) by %s", g.Agg, g.ZRef, g.URef))
	ga, err := exec.NewGroupAggJoin(sortedOuter, inner, g.URef, g.VRef, g.Op2, g.ZRef, g.Agg, g.YRef, g.CmpOp, node, e.workers())
	if err != nil {
		return nil, err
	}
	return e.finishProject(e.attach(node, ga, sortedOuter, inner), p.Proj().Items, p.Root.Shape)
}

// execUncorrPlan folds an uncorrelated aggregate subquery: the subquery
// is evaluated once, aggregated to a constant, and applied as a filter
// over the outer block (Section 6 notes no unnesting is needed).
func (e *Env) execUncorrPlan(p *plan.Plan, u *plan.UncorrSub) (*frel.Relation, error) {
	sub := exec.NewOpStats(StrategyNaive.String(), "constant subquery")
	set, err := e.constantSubquerySet(u.Sub, sub)
	if err != nil {
		return nil, err
	}
	members := make([]fuzzy.Member, 0, len(set))
	for _, m := range set {
		if m.val.Kind != frel.KindNumber && u.Agg != fuzzy.AggCount {
			return nil, fmt.Errorf("core: aggregate %v over non-numeric values", u.Agg)
		}
		members = append(members, fuzzy.Member{Value: m.val.Num, Mu: m.mu})
	}
	a, ok := fuzzy.Aggregate(u.Agg, members)
	outer, _, err := e.compileLeaf(u.Outer)
	if err != nil {
		return nil, err
	}
	node := exec.NewOpStats("filter", "uncorrelated subquery")
	node.AddChild(sub)
	pred := func(frel.Tuple) float64 { return 0 } // a NULL aggregate satisfies nothing
	if ok {
		yi, err := outer.Schema().Resolve(u.YRef)
		if err != nil {
			return nil, err
		}
		op := u.CmpOp
		pred = func(t frel.Tuple) float64 {
			node.DegreeEvals.Add(1)
			return frel.Degree(op, t.Values[yi], frel.Num(a))
		}
	}
	result := e.attach(node, exec.NewFilter(outer, pred), outer)
	return e.finishProject(result, p.Proj().Items, p.Root.Shape)
}

// finishProject projects, deduplicates and applies the answer shape
// (threshold, order, limit).
func (e *Env) finishProject(src *exec.Stated, items []fsql.SelectItem, shape plan.Shape) (*frel.Relation, error) {
	proj, err := exec.NewProject(src, itemRefs(items), true)
	if err != nil {
		return nil, err
	}
	node := exec.NewOpStats("project", "")
	rel, err := exec.Collect(e.attach(node, proj, src))
	if err != nil {
		return nil, err
	}
	pruned, err := finalizeAnswer(rel, shape)
	if err != nil {
		return nil, err
	}
	node.Pruned.Add(int64(pruned))
	return rel, nil
}

// constantSubquerySet evaluates an uncorrelated subquery once, counting
// into node, and returns its answer as a fuzzy value set.
func (e *Env) constantSubquerySet(sub *fsql.Select, node *exec.OpStats) ([]setMember, error) {
	rel, err := e.evalNaive(sub, node)
	if err != nil {
		return nil, err
	}
	set := make([]setMember, 0, rel.Len())
	for _, t := range rel.Tuples {
		if t.D > 0 {
			set = append(set, setMember{val: t.Values[0], mu: t.D})
		}
	}
	return set, nil
}

func hasAggItems(items []fsql.SelectItem) bool {
	for _, it := range items {
		if it.HasAgg {
			return true
		}
	}
	return false
}

func andJoinPreds(ps []exec.JoinPred) exec.JoinPred {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	default:
		return func(l, r frel.Tuple) float64 {
			d := 1.0
			for _, p := range ps {
				if g := p(l, r); g < d {
					d = g
					if d == 0 {
						return 0
					}
				}
			}
			return d
		}
	}
}
