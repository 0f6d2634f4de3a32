package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/frel"
)

// EngineRun is one merge-join measurement of the comparison grid: the
// engine at a given worker count, with or without pre-built order
// indexes, running the type J query twice in the same environment so the
// warm run exercises the sort-order cache. Engine and Kernels label the
// engine the run measured; every current run is "batch" with kernels, the
// labels the committed baselines key their cells on (older baselines also
// carry the retired "tuple" and interpreted engines).
type EngineRun struct {
	Engine  string `json:"engine"`            // "batch" (or "tuple" in old baselines)
	Kernels bool   `json:"kernels,omitempty"` // fused degree kernels enabled
	Workers int    `json:"workers"`           // merge-join worker count
	Indexed bool   `json:"indexed,omitempty"` // persistent order indexes pre-built

	ColdWallNanos int64 `json:"cold_wall_ns"` // first run: cache empty
	WarmWallNanos int64 `json:"warm_wall_ns"` // best of three cache-hit runs

	Answer      int   `json:"answer_rows"`
	IOs         int64 `json:"page_ios"`
	Comparisons int64 `json:"comparisons"`
	DegreeEvals int64 `json:"degree_evals"`

	SortCacheHits   int64 `json:"sort_cache_hits"`
	SortCacheMisses int64 `json:"sort_cache_misses"`
	IndexHits       int64 `json:"index_hits,omitempty"`
	Morsels         int64 `json:"morsels,omitempty"` // kernel-join work units dispatched
}

// ExperimentRuns is the comparison grid of one experiment's
// representative workload: worker counts x (sorted, indexed) inputs.
type ExperimentRuns struct {
	Name       string      `json:"name"`
	Outer      int         `json:"outer_tuples"`
	Inner      int         `json:"inner_tuples"`
	Fanout     int         `json:"fanout"`
	TupleBytes int         `json:"tuple_bytes"`
	Runs       []EngineRun `json:"runs"`

	// ColdIndexedSpeedup is the serial cold wall time without
	// indexes divided by the same run with pre-built indexes — how much
	// the persistent order indexes shorten a cold start.
	ColdIndexedSpeedup float64 `json:"cold_indexed_speedup,omitempty"`
}

// BenchReport is the machine-readable comparison grid fuzzybench -compare
// emits (committed as BENCH_N.json): the merge-join method on a
// representative workload of each paper experiment, run serially and with
// 4 workers.
type BenchReport struct {
	Query       string           `json:"query"`
	ScaleDiv    int              `json:"scalediv"`
	Seed        int64            `json:"seed"`
	Experiments []ExperimentRuns `json:"experiments"`
}

// reportWorkloads lists the representative cell of each paper experiment:
// Table 1's 8000x8000 pair, Table 2/3's fixed-outer growing-inner pair,
// and Table 4's wide-tuple C=1 pair.
var reportWorkloads = []struct {
	name                string
	outerPaper, inPaper int
	fanout, tupleBytes  int
}{
	{"table1", 8000, 8000, 7, 128},
	{"table2", table2OuterTuples, 64000, 7, 128},
	{"table3", table2OuterTuples, 128000, 7, 128},
	{"table4", table4Tuples, table4Tuples, 1, 1024},
}

// ReportFor measures the report workloads of the named experiments at 1
// and 4 workers and returns the combined comparison; no names means all
// of them. Unknown names are an error.
func (c Config) ReportFor(names ...string) (*BenchReport, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for n := range want {
		known := false
		for _, w := range reportWorkloads {
			if w.name == n {
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("bench: unknown experiment %q", n)
		}
	}
	cfg := c.withDefaults()
	rep := &BenchReport{Query: TypeJQuery, ScaleDiv: cfg.ScaleDiv, Seed: cfg.Seed}
	for _, w := range reportWorkloads {
		if len(want) > 0 && !want[w.name] {
			continue
		}
		ex := ExperimentRuns{
			Name:       w.name,
			Outer:      cfg.scale(w.outerPaper),
			Inner:      cfg.scale(w.inPaper),
			Fanout:     w.fanout,
			TupleBytes: w.tupleBytes,
		}
		// One unmeasured throwaway cell before the grid: the first measured
		// cell in a fresh experiment would otherwise absorb the remaining
		// process warmup (Go heap growth to this workload's footprint, OS
		// page-cache population) that the per-cell warmup eval inside
		// runEngine is too short to complete on its own.
		if _, err := cfg.runEngine(w.name, ex.Outer, ex.Inner, w.fanout, w.tupleBytes, 1, false); err != nil {
			return nil, err
		}
		for _, workers := range []int{1, 4} {
			run, err := cfg.runEngine(w.name, ex.Outer, ex.Inner, w.fanout, w.tupleBytes, workers, false)
			if err != nil {
				return nil, err
			}
			ex.Runs = append(ex.Runs, run)
		}
		if cfg.Indexes {
			// The ablation leg: the same runs with the order indexes
			// pre-built, so the cold run reads them instead of sorting.
			for _, workers := range []int{1, 4} {
				run, err := cfg.runEngine(w.name, ex.Outer, ex.Inner, w.fanout, w.tupleBytes, workers, true)
				if err != nil {
					return nil, err
				}
				ex.Runs = append(ex.Runs, run)
			}
			var plain, indexed int64
			for _, run := range ex.Runs {
				if run.Workers == 1 {
					if run.Indexed {
						indexed = run.ColdWallNanos
					} else {
						plain = run.ColdWallNanos
					}
				}
			}
			if plain > 0 && indexed > 0 {
				ex.ColdIndexedSpeedup = float64(plain) / float64(indexed)
			}
		}
		rep.Experiments = append(rep.Experiments, ex)
	}
	return rep, nil
}

// runEngine runs the merge-join method twice in one environment (cold
// then warm sort cache) and records wall times and counters.
func (c Config) runEngine(name string, nOuter, nInner, fanout, tupleBytes, workers int, indexed bool) (EngineRun, error) {
	cfg := c
	cfg.Fanout = fanout
	cfg.TupleBytes = tupleBytes
	cfg.Parallelism = workers
	cfg.Indexes = indexed

	env, mgr, q, cleanup, err := cfg.setupWorkload(nOuter, nInner)
	if err != nil {
		return EngineRun{}, err
	}
	defer cleanup()

	// One unmeasured eval before anything is timed: it pulls the freshly
	// written heap files through the OS page cache and grows the Go heap
	// to working size, so every grid cell starts its measured runs from
	// the same process state. Without it, cells measured later in the grid
	// inherit a warmer process than the first, which biases the comparison
	// toward whichever engine happens to run last.
	if _, err := env.EvalUnnested(q); err != nil {
		return EngineRun{}, err
	}
	env.ReleaseSortCache()

	env.ResetStats()
	mgr.Stats().Reset()
	// Cold runs re-sort from scratch; dropping the sort cache between them
	// makes each one cold again, and the best of five keeps one-shot GC
	// pauses and scheduler hiccups from masquerading as engine cost (same
	// rationale as the warm loop below). Cold evals are dominated by file
	// I/O and syscalls, so their noise floor is wider than the warm
	// loop's: five samples instead of three tightens the floor estimate.
	var cold *frel.Relation
	var coldWall time.Duration
	for i := 0; i < 5; i++ {
		if i > 0 {
			env.ReleaseSortCache()
		}
		start := time.Now()
		res, err := env.EvalUnnested(q)
		d := time.Since(start)
		if err != nil {
			return EngineRun{}, err
		}
		if cold != nil && !cold.Equal(res, 0) {
			return EngineRun{}, fmt.Errorf("bench: %s: cold runs disagree (%d vs %d tuples)", name, cold.Len(), res.Len())
		}
		cold = res
		if i == 0 || d < coldWall {
			coldWall = d
		}
	}
	// Warm runs hit the sort cache; take the best of three so one-shot GC
	// pauses don't masquerade as engine cost.
	var warmWall time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		warm, err := env.EvalUnnested(q)
		d := time.Since(start)
		if err != nil {
			return EngineRun{}, err
		}
		if !cold.Equal(warm, 0) {
			return EngineRun{}, fmt.Errorf("bench: %s: warm run disagrees with cold run (%d vs %d tuples)", name, cold.Len(), warm.Len())
		}
		if i == 0 || d < warmWall {
			warmWall = d
		}
	}

	return EngineRun{
		Engine:          "batch",
		Kernels:         true,
		Workers:         workers,
		Indexed:         indexed,
		ColdWallNanos:   coldWall.Nanoseconds(),
		WarmWallNanos:   warmWall.Nanoseconds(),
		Answer:          cold.Len(),
		IOs:             mgr.Stats().IO(),
		Comparisons:     env.Counters.Comparisons.Load(),
		DegreeEvals:     env.Counters.DegreeEvals.Load(),
		SortCacheHits:   env.Counters.SortCacheHits.Load(),
		SortCacheMisses: env.Counters.SortCacheMisses.Load(),
		IndexHits:       env.Counters.IndexHits.Load(),
		Morsels:         env.Counters.Morsels.Load(),
	}, nil
}

// RenderGrid renders the comparison as a human-readable table: one legend
// line per experiment (not one per run) naming the columns, then one row
// per run with wall times and the morsel count of the merge-join.
func (r *BenchReport) RenderGrid() string {
	var b strings.Builder
	fmt.Fprintf(&b, "merge-join grid  query=%q scalediv=%d seed=%d\n",
		r.Query, r.ScaleDiv, r.Seed)
	for _, ex := range r.Experiments {
		fmt.Fprintf(&b, "\n%s  (outer=%d inner=%d fanout=%d tuplebytes=%d)\n",
			ex.Name, ex.Outer, ex.Inner, ex.Fanout, ex.TupleBytes)
		// The legend appears once per experiment.
		fmt.Fprintf(&b, "  %-18s %7s %12s %12s %10s %8s\n",
			"engine", "workers", "cold", "warm", "answer", "morsels")
		for _, run := range ex.Runs {
			label := run.Engine
			if run.Kernels {
				label += "+kernels"
			}
			if run.Indexed {
				label += "+idx"
			}
			fmt.Fprintf(&b, "  %-18s %7d %12s %12s %10d %8d\n",
				label, run.Workers,
				time.Duration(run.ColdWallNanos).Round(time.Microsecond),
				time.Duration(run.WarmWallNanos).Round(time.Microsecond),
				run.Answer, run.Morsels)
		}
		if ex.ColdIndexedSpeedup > 0 {
			fmt.Fprintf(&b, "  cold indexed speedup: %.2fx\n", ex.ColdIndexedSpeedup)
		}
	}
	return b.String()
}
