package bench

import (
	"context"
	"testing"

	"repro/internal/exec"
)

// TestAnalyzePairRngBound reproduces the paper's central efficiency claim
// (Section 3) as a regression test on the EXPERIMENTS.md workload: the
// extended merge-join touches, per outer tuple, only the inner tuples
// whose supports intersect — so the Rng(r) scan lengths reported by
// EXPLAIN ANALYZE must be strictly smaller than the inner relation's
// cardinality, while the naive nested-loop method rescans all of it.
func TestAnalyzePairRngBound(t *testing.T) {
	const nOuter, nInner = 250, 250
	cfg := Config{ScaleDiv: 32, Verify: true, Seed: 1}
	rep, err := cfg.AnalyzePair(nOuter, nInner)
	if err != nil {
		t.Fatal(err)
	}

	merged := rep.Methods[MergeJoin.String()]
	if merged == nil || merged.Plan == nil {
		t.Fatalf("no merge-join method stats in report: %+v", rep.Methods)
	}
	mj := merged.Plan.Find("merge-join")
	if mj == nil {
		t.Fatalf("no merge-join node in plan:\n%s", merged.Plan.Render())
	}
	if mj.RngCount != nOuter {
		t.Errorf("RngCount = %d, want one Rng(r) observation per outer tuple (%d)", mj.RngCount, nOuter)
	}
	if mj.RngMax <= 0 || mj.RngMax >= nInner {
		t.Errorf("RngMax = %d, want 0 < RngMax < inner cardinality %d", mj.RngMax, nInner)
	}
	if mj.RngAvg <= 0 || mj.RngAvg >= float64(nInner) {
		t.Errorf("RngAvg = %g, want 0 < RngAvg < inner cardinality %d", mj.RngAvg, nInner)
	}
	// Work is counted once: the merge-join's comparisons (every window
	// tuple it examines) are exactly the query's, as Env.Counters sums
	// them, minus its sorts'.
	env, _, q, cleanup, err := cfg.withDefaults().setupWorkload(nOuter, nInner)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	before := env.Counters.Comparisons.Load()
	_, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	delta := env.Counters.Comparisons.Load() - before
	plan := es.Plan()
	var sorts int64
	var walk func(s *exec.StatsSnapshot)
	walk = func(s *exec.StatsSnapshot) {
		if s.Op == "sort" {
			sorts += s.Comparisons
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(plan)
	if mj := plan.Find("merge-join"); mj.Comparisons != delta-sorts {
		t.Errorf("merge-join Comparisons = %d, want the query's %d minus its sorts' %d = %d\n%s",
			mj.Comparisons, delta, sorts, delta-sorts, plan.Render())
	}

	naive := rep.Methods[NestedLoop.String()]
	if naive == nil || naive.Plan == nil {
		t.Fatalf("no nested-loop method stats in report: %+v", rep.Methods)
	}
	if naive.Answer != merged.Answer {
		t.Errorf("methods disagree on answer size: naive %d vs merged %d", naive.Answer, merged.Answer)
	}
	// The efficiency gap itself: the naive method evaluates a membership
	// degree for every outer × inner pair, far above the merge-join's
	// Rng-bounded total across its whole plan.
	_, _, mergedDeg := merged.Plan.Totals()
	if naive.Plan.DegreeEvals <= mergedDeg {
		t.Errorf("naive degree evaluations %d not above merge-join total %d",
			naive.Plan.DegreeEvals, mergedDeg)
	}
}
