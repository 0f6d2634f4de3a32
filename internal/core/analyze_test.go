package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// analyzeEnv builds a disk-backed environment with generated R/S
// relations (the bench workload shape) at the given parallelism.
func analyzeEnv(t *testing.T, tuples, workers int) *Env {
	t.Helper()
	mgr := storage.NewManager(t.TempDir(), 16)
	cat := catalog.New(mgr)
	env := NewEnv(cat)
	env.SortMemPages = 8
	env.NLBlockBytes = 7 * storage.PageSize
	env.Parallelism = workers
	for i, name := range []string{"R", "S"} {
		if _, err := workload.Load(cat, workload.Params{
			Name: name, Tuples: tuples, TupleBytes: 128,
			Fanout: 7, Width: 5, Jitter: 0.5, Seed: int64(1 + i),
		}); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return env
}

const analyzeQuery = `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A)`

// TestExplainAnalyzeCollectsStats checks that an analyzed run attaches a
// populated operator tree: nonzero rows, comparisons and wall time, a
// merge-join node with Rng(r) observations for every outer tuple, and
// sort nodes carrying run/spill statistics.
func TestExplainAnalyzeCollectsStats(t *testing.T) {
	env := analyzeEnv(t, 400, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	rel, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if es.Strategy != StrategyChain {
		t.Fatalf("strategy = %v, want %v", es.Strategy, StrategyChain)
	}
	if es.Root == nil {
		t.Fatal("no stats tree collected")
	}
	if es.Answer != rel.Len() {
		t.Fatalf("Answer = %d, want %d", es.Answer, rel.Len())
	}
	snap := es.Plan()
	rows, cmp, deg := snap.Totals()
	if rows == 0 || cmp == 0 || deg == 0 {
		t.Fatalf("zero work counters: rows=%d cmp=%d deg=%d", rows, cmp, deg)
	}
	if es.Wall <= 0 {
		t.Fatalf("non-positive wall time %v", es.Wall)
	}
	mj := snap.Find("merge-join")
	if mj == nil {
		t.Fatalf("no merge-join node in:\n%s", snap.Render())
	}
	if mj.RngCount != 400 {
		t.Fatalf("merge-join RngCount = %d, want one observation per outer tuple (400)", mj.RngCount)
	}
	if mj.Comparisons == 0 || mj.RngMax == 0 {
		t.Fatalf("empty merge-join stats: %+v", mj)
	}
	sortNode := snap.Find("sort")
	if sortNode == nil {
		t.Fatalf("no sort node in:\n%s", snap.Render())
	}
	if sortNode.SortRuns == 0 || sortNode.SpillBytes == 0 {
		t.Fatalf("external sort reported no runs/spill: %+v", sortNode)
	}
	if snap.Find("scan") == nil || snap.Find("project") == nil {
		t.Fatalf("missing scan/project nodes in:\n%s", snap.Render())
	}
}

// TestAnalyzeNaiveRootSynthesis checks that the naive evaluator (which
// has no operator pipeline) reports a single root node its blocks count
// into.
func TestAnalyzeNaiveRootSynthesis(t *testing.T) {
	env := analyzeEnv(t, 100, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	rel, es, err := env.EvalNaiveAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if es.Strategy != StrategyNaive {
		t.Fatalf("strategy = %v, want %v", es.Strategy, StrategyNaive)
	}
	if es.Root == nil {
		t.Fatal("no naive root")
	}
	snap := es.Plan()
	if snap.RowsOut != int64(rel.Len()) {
		t.Fatalf("RowsOut = %d, want %d", snap.RowsOut, rel.Len())
	}
	if snap.DegreeEvals == 0 {
		t.Fatal("naive root has no degree evaluations")
	}
}

// TestAnalyzePrunedCount checks WITH D >= thresholding is accounted.
func TestAnalyzePrunedCount(t *testing.T) {
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	r.Append(frel.NewTuple(1, frel.Crisp(1), frel.Crisp(10)))
	r.Append(frel.NewTuple(0.4, frel.Crisp(2), frel.Crisp(20)))
	r.Append(frel.NewTuple(0.2, frel.Crisp(3), frel.Crisp(30)))
	env := heapEnv(t, r)
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.B >= 0 WITH D >= 0.3`)
	if err != nil {
		t.Fatal(err)
	}
	rel, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("answer = %d tuples, want 2", rel.Len())
	}
	if es.Pruned != 1 {
		t.Fatalf("Pruned = %d, want 1", es.Pruned)
	}
}

// TestAnalyzeParallelInvariance is the property test of the stats
// contract: serial and parallel executions of the same query must return
// identical answers AND identical aggregated work counters (rows,
// comparisons, degree evaluations, and the full Rng(r) distribution).
func TestAnalyzeParallelInvariance(t *testing.T) {
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		label                string
		rel                  *frel.Relation
		rows, cmp, deg       int64
		rngN, rngMin, rngMax int64
		rngSum               float64
	}
	// The stats contract holds across worker counts: all four runs must
	// agree on the answer and on every aggregated work counter.
	var runs []run
	for _, workers := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		env := analyzeEnv(t, 600, workers)
		rel, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		snap := es.Plan()
		rows, cmp, deg := snap.Totals()
		mj := snap.Find("merge-join")
		if mj == nil {
			t.Fatalf("%s: no merge-join node in:\n%s", label, snap.Render())
		}
		// Non-vacuity: the merge-join must actually run its compiled sweep.
		if env.Counters.KernelTuples.Load() == 0 {
			t.Fatalf("%s: compiled kernels did not fire", label)
		}
		runs = append(runs, run{
			label: label, rel: rel,
			rows: rows, cmp: cmp, deg: deg,
			rngN: mj.RngCount, rngMin: mj.RngMin, rngMax: mj.RngMax,
			rngSum: mj.RngAvg * float64(mj.RngCount),
		})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if !base.rel.Equal(r.rel, 0) {
			t.Errorf("%s: answer differs from %s (%d vs %d tuples)",
				r.label, base.label, r.rel.Len(), base.rel.Len())
		}
		if r.rows != base.rows || r.cmp != base.cmp || r.deg != base.deg {
			t.Errorf("%s: work totals differ from %s: rows %d/%d cmp %d/%d deg %d/%d",
				r.label, base.label, r.rows, base.rows, r.cmp, base.cmp, r.deg, base.deg)
		}
		if r.rngN != base.rngN || r.rngMin != base.rngMin || r.rngMax != base.rngMax ||
			math.Abs(r.rngSum-base.rngSum) > 1e-6 {
			t.Errorf("%s: Rng distribution differs from %s: n %d/%d min %d/%d max %d/%d sum %.1f/%.1f",
				r.label, base.label, r.rngN, base.rngN, r.rngMin, base.rngMin, r.rngMax, base.rngMax, r.rngSum, base.rngSum)
		}
	}
}

// countOnceQueries covers every nesting class and plan shape, with the
// strategy the planner picks for it on analyzeEnv's relations.
var countOnceQueries = []struct {
	name, sql string
	strategy  Strategy
}{
	{"N", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S)`, StrategyChain},
	{"J", analyzeQuery, StrategyChain},
	{"JX", `SELECT R.K FROM R WHERE R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)`, StrategyAntiJoin},
	{"JA", `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)`, StrategyGroupAgg},
	{"JA-COUNT", `SELECT R.K FROM R WHERE R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)`, StrategyGroupAgg},
	{"JALL", `SELECT R.K FROM R WHERE R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)`, StrategyAllAnti},
	{"chain", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A AND S.B IN (SELECT T.B FROM R T WHERE T.A = S.A))`, StrategyChain},
	{"EXISTS", `SELECT R.K FROM R WHERE EXISTS (SELECT S.B FROM S WHERE S.A = R.A AND S.B > 20)`, StrategyChain},
	{"NOT EXISTS", `SELECT R.K FROM R WHERE NOT EXISTS (SELECT S.B FROM S WHERE S.A = R.A AND S.B > 20)`, StrategyAntiJoin},
	{"uncorrelated", `SELECT R.K FROM R WHERE R.B >= (SELECT AVG(S.B) FROM S WHERE S.A > 3)`, StrategyUncorrelated},
	{"naive", `SELECT R.K FROM R WHERE R.B IN (SELECT S.B FROM S WHERE S.A = R.A) AND R.A NOT IN (SELECT S.A FROM S WHERE S.B > 40)`, StrategyNaive},
	{"group", `SELECT R.A, COUNT(S.B) FROM R, S WHERE R.A = S.A AND R.B > 10 GROUPBY R.A HAVING R.A > 3`, StrategyFlat},
	{"nl-join", `SELECT R.K FROM R, S WHERE R.B > S.B AND R.A < S.A AND S.K < 60`, StrategyFlat},
}

// workCounts is one reading (or difference of readings) of every
// Env.Counters field.
type workCounts struct {
	deg, cmp, cacheHits, cacheMisses, indexHits, kernelTuples, morsels int64
}

func readWork(e *Env) workCounts {
	c := &e.Counters
	return workCounts{c.DegreeEvals.Load(), c.Comparisons.Load(), c.SortCacheHits.Load(),
		c.SortCacheMisses.Load(), c.IndexHits.Load(), c.KernelTuples.Load(), c.Morsels.Load()}
}

func (w workCounts) minus(v workCounts) workCounts {
	return workCounts{w.deg - v.deg, w.cmp - v.cmp, w.cacheHits - v.cacheHits, w.cacheMisses - v.cacheMisses,
		w.indexHits - v.indexHits, w.kernelTuples - v.kernelTuples, w.morsels - v.morsels}
}

// treeWork sums the work counters of a statistics tree.
func treeWork(s *exec.StatsSnapshot) workCounts {
	w := workCounts{s.DegreeEvals, s.Comparisons, s.CacheHits, s.CacheMisses, s.IndexHits, s.KernelTuples, s.Morsels}
	for _, c := range s.Children {
		cw := treeWork(c)
		w = workCounts{w.deg + cw.deg, w.cmp + cw.cmp, w.cacheHits + cw.cacheHits, w.cacheMisses + cw.cacheMisses,
			w.indexHits + cw.indexHits, w.kernelTuples + cw.kernelTuples, w.morsels + cw.morsels}
	}
	return w
}

// TestAnalyzeCountsOnce: operators count their work once, into their plan
// nodes, and Env.Counters is the sum of the statements' trees. For every
// query shape, cold (empty sort-order cache) and warm, at 1 and 4
// workers, an analyzed run returns the plain run's answer at tolerance 0,
// moves Env.Counters by exactly what the plain run moves them by, and its
// root's totals equal that move.
func TestAnalyzeCountsOnce(t *testing.T) {
	for _, tc := range countOnceQueries {
		q, err := fsql.ParseQuery(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			plain, analyzed := analyzeEnv(t, 600, workers), analyzeEnv(t, 600, workers)
			for _, run := range []string{"cold", "warm"} {
				label := fmt.Sprintf("%s/workers=%d/%s", tc.name, workers, run)
				before := readWork(plain)
				want, err := plain.EvalUnnested(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				plainWork := readWork(plain).minus(before)

				before = readWork(analyzed)
				got, es, err := analyzed.EvalUnnestedAnalyze(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				work := readWork(analyzed).minus(before)

				if es.Strategy != tc.strategy {
					t.Fatalf("%s: strategy %v, want %v", label, es.Strategy, tc.strategy)
				}
				if want.Len() == 0 {
					t.Fatalf("%s: empty answer proves nothing", label)
				}
				if !got.Equal(want, 0) {
					t.Errorf("%s: analyzed answer (%d tuples) differs from the plain one (%d)", label, got.Len(), want.Len())
				}
				if work != plainWork {
					t.Errorf("%s: analyzed run moved the counters by %+v, the plain run by %+v", label, work, plainWork)
				}
				snap := es.Plan()
				if _, cmp, deg := snap.Totals(); cmp != work.cmp || deg != work.deg {
					t.Errorf("%s: root totals cmp=%d deg=%d, counters moved by cmp=%d deg=%d\n%s",
						label, cmp, deg, work.cmp, work.deg, snap.Render())
				}
				if tw := treeWork(snap); tw != work {
					t.Errorf("%s: tree counts %+v, counters moved by %+v", label, tw, work)
				}
			}
		}
	}
}
