package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
)

// ExecStats is the result of an EXPLAIN ANALYZE evaluation: the chosen
// strategy plus the statement's per-operator tree of runtime measures.
// Every statement builds that tree (the operators count their work into
// it); an analyzed one also returns it. The work counters are
// deterministic and aggregate exactly across parallel morsels — the same
// query reports identical row, comparison and degree-evaluation totals at
// any Parallelism setting — so they double as correctness oracles for the
// parallel operators.
type ExecStats struct {
	Strategy Strategy
	Note     string
	Rules    []string      // planner rewrite rules applied, in order
	Wall     time.Duration // total evaluation wall time
	Answer   int           // answer cardinality (after thresholding)
	Pruned   int64         // rows dropped by WITH D >= thresholding
	PoolHits int64         // buffer-pool page hits during the evaluation
	// PoolMisses counts buffer-pool misses (each one is a physical page
	// read).
	PoolMisses int64
	Root       *exec.OpStats // root of the operator tree
}

// Plan snapshots the operator tree into plain serializable values.
func (s *ExecStats) Plan() *exec.StatsSnapshot { return s.Root.Snapshot() }

// Lines renders the stats as text lines: a strategy header, a summary
// line, and one indented line per operator.
func (s *ExecStats) Lines() []string {
	lines := []string{
		fmt.Sprintf("strategy: %s (%s)", s.Strategy, s.Note),
	}
	if len(s.Rules) > 0 {
		lines = append(lines, "rules: "+strings.Join(s.Rules, ", "))
	}
	lines = append(lines,
		fmt.Sprintf("wall: %s  answer: %d tuples  pruned by WITH: %d  pool: %d hits / %d misses",
			s.Wall.Round(time.Microsecond), s.Answer, s.Pruned, s.PoolHits, s.PoolMisses))
	return append(lines, strings.Split(strings.TrimRight(s.Plan().Render(), "\n"), "\n")...)
}

// Render returns the Lines joined with newlines.
func (s *ExecStats) Render() string {
	return strings.Join(s.Lines(), "\n") + "\n"
}

// attach wires node into the statement's tree: the nodes of the inputs
// become its children, node becomes the statement's root (the outermost
// operator is attached last), and src is wrapped so its rows out and wall
// time are measured.
func (e *Env) attach(node *exec.OpStats, src exec.Source, inputs ...*exec.Stated) *exec.Stated {
	for _, in := range inputs {
		node.AddChild(in.Node)
	}
	e.root = node
	return exec.NewStated(src, node)
}

// stated creates a node and attaches it in one step.
func (e *Env) stated(op, label string, src exec.Source, inputs ...*exec.Stated) *exec.Stated {
	return e.attach(exec.NewOpStats(op, label), src, inputs...)
}

// run evaluates one statement: eval compiles and runs its operator tree,
// whose operators count their work only into their nodes. When the
// statement succeeds, the tree's totals are added to e.Counters, once, and
// its root is returned.
func (e *Env) run(eval func() (*frel.Relation, error)) (*frel.Relation, *exec.OpStats, error) {
	e.root = nil
	rel, err := eval()
	root := e.root
	e.root = nil
	if err != nil {
		return nil, nil, err
	}
	e.Counters.AddTotals(root.Snapshot())
	return rel, root, nil
}

// runAnalyzed runs eval as one statement and fills es from its tree.
func (e *Env) runAnalyzed(es *ExecStats, eval func() (*frel.Relation, error)) (*frel.Relation, error) {
	reads0, _, hits0, _ := e.cat.Manager().Stats().Snapshot()
	start := time.Now()
	rel, root, err := e.run(eval)
	es.Wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	es.Root, es.Answer, es.Pruned = root, rel.Len(), root.Pruned.Load()
	reads1, _, hits1, _ := e.cat.Manager().Stats().Snapshot()
	es.PoolHits, es.PoolMisses = hits1-hits0, reads1-reads0
	root.PoolHits.Store(es.PoolHits)
	root.PoolMisses.Store(es.PoolMisses)
	return rel, nil
}

// EvalUnnestedAnalyze is EvalUnnestedContext returning the statement's
// statistics: it evaluates the query via the unnesting rewrites — the
// same plan EvalUnnested runs — and returns the answer together with the
// populated stats tree.
func (e *Env) EvalUnnestedAnalyze(ctx context.Context, q *fsql.Select) (*frel.Relation, *ExecStats, error) {
	defer e.withContext(ctx)()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	p, err := e.PlanQuery(q)
	if err != nil {
		return nil, nil, err
	}
	es := &ExecStats{Strategy: p.Strategy, Note: p.Note, Rules: p.Rules}
	rel, err := e.runAnalyzed(es, func() (*frel.Relation, error) { return e.execPlan(p) })
	if err != nil {
		return nil, nil, err
	}
	return rel, es, nil
}

// EvalNaiveAnalyze is EvalNaiveContext returning the statement's
// statistics; the naive evaluator reports its work as a single root node.
func (e *Env) EvalNaiveAnalyze(ctx context.Context, q *fsql.Select) (*frel.Relation, *ExecStats, error) {
	defer e.withContext(ctx)()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	es := &ExecStats{Strategy: StrategyNaive, Note: "nested-loop evaluation of the nested form"}
	rel, err := e.runAnalyzed(es, func() (*frel.Relation, error) { return e.execNaive(q) })
	if err != nil {
		return nil, nil, err
	}
	return rel, es, nil
}
