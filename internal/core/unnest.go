package core

import (
	"context"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/plan"
)

// The nesting classification, unnesting rewrites (Sections 4-8) and join
// planning that used to live in this file moved to the three-stage
// planner in internal/plan (Build -> Rewrite -> Estimate); physical
// compilation to exec operators is in compile.go. This file keeps the
// thin public evaluation surface of Env.

// Strategy is the evaluation strategy the planner picks for a query,
// re-exported from internal/plan.
type Strategy = plan.Strategy

// Strategy constants, re-exported for callers of Explain.
const (
	StrategyFlat         = plan.StrategyFlat
	StrategyChain        = plan.StrategyChain
	StrategyAntiJoin     = plan.StrategyAntiJoin
	StrategyGroupAgg     = plan.StrategyGroupAgg
	StrategyAllAnti      = plan.StrategyAllAnti
	StrategyUncorrelated = plan.StrategyUncorrelated
	StrategyNaive        = plan.StrategyNaive
)

// Plan is the one-line EXPLAIN summary of a planning decision. The full
// logical plan (rules, estimates, operator tree) is available from
// Env.PlanQuery.
type Plan struct {
	Strategy Strategy
	Note     string
}

// Explain reports which strategy the planner would use for q, without
// evaluating it.
func (e *Env) Explain(q *fsql.Select) Plan {
	p, err := e.PlanQuery(q)
	if err != nil {
		return Plan{StrategyNaive, "cannot plan: " + err.Error()}
	}
	return Plan{p.Strategy, p.Note}
}

// EvalUnnested evaluates the query via the paper's unnesting rewrites
// (Sections 4-8), falling back to the naive nested evaluation for shapes
// outside the supported classes. The answer is always equivalent to
// EvalNaive's (Theorems 4.1-8.1).
func (e *Env) EvalUnnested(q *fsql.Select) (*frel.Relation, error) {
	p, err := e.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	rel, _, err := e.run(func() (*frel.Relation, error) { return e.execPlan(p) })
	return rel, err
}

// EvalUnnestedContext is EvalUnnested observing ctx: the evaluation's leaf
// scans periodically check for cancellation, so a cancelled context aborts
// long joins and sorts with the context's error.
func (e *Env) EvalUnnestedContext(ctx context.Context, q *fsql.Select) (*frel.Relation, error) {
	defer e.withContext(ctx)()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.EvalUnnested(q)
}

// EvalPlanContext executes a previously planned query: prepared
// statements parse and plan once, then re-execute the recorded plan many
// times. The plan replays its decisions (join order, merge vs nested
// loop, predicate placement); sources and linguistic terms re-resolve
// against the current catalog and term scope on every execution, so a
// cached plan stays correct across inserts (its cost choices may merely
// grow stale).
func (e *Env) EvalPlanContext(ctx context.Context, p *plan.Plan) (*frel.Relation, error) {
	defer e.withContext(ctx)()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rel, _, err := e.run(func() (*frel.Relation, error) { return e.execPlan(p) })
	return rel, err
}

// EvalNaiveContext is EvalNaive observing ctx like EvalUnnestedContext.
func (e *Env) EvalNaiveContext(ctx context.Context, q *fsql.Select) (*frel.Relation, error) {
	defer e.withContext(ctx)()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.EvalNaive(q)
}
