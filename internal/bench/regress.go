package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Regression is one run of the comparison grid whose cold wall time grew
// past the allowed ratio over the committed baseline.
type Regression struct {
	Experiment string
	Engine     string
	Kernels    bool
	Workers    int
	Indexed    bool
	Baseline   int64 // baseline cold wall, nanoseconds
	Current    int64 // current cold wall, nanoseconds
	Ratio      float64
}

// String renders the regression for CI logs.
func (r Regression) String() string {
	idx := ""
	if r.Indexed {
		idx = " indexed"
	}
	k := ""
	if r.Kernels {
		k = " kernels"
	}
	return fmt.Sprintf("%s %s%s workers=%d%s: cold wall %.2fms -> %.2fms (%.2fx)",
		r.Experiment, r.Engine, k, r.Workers, idx,
		float64(r.Baseline)/1e6, float64(r.Current)/1e6, r.Ratio)
}

// LoadBaseline reads a committed BenchReport (BENCH_N.json).
func LoadBaseline(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline: %w", err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: baseline %s: %w", path, err)
	}
	return &rep, nil
}

// FindRegressions compares current against baseline run by run (matched on
// experiment name, engine, kernels flag, worker count and indexed flag)
// and returns every run whose cold wall time exceeds baseline*maxRatio,
// together with the number of current runs that matched a baseline run.
// Runs present on only one side are skipped — the grids may legitimately
// differ across revisions — so a caller must treat zero matches as a
// comparison that checked nothing. A differing answer cardinality on a
// matched run is a hard error: that is a correctness change masquerading
// as a performance number.
func FindRegressions(baseline, current *BenchReport, maxRatio float64) (regs []Regression, matched int, err error) {
	if maxRatio <= 1 {
		return nil, 0, fmt.Errorf("bench: max ratio %g must exceed 1", maxRatio)
	}
	if baseline.ScaleDiv != current.ScaleDiv || baseline.Seed != current.Seed {
		return nil, 0, fmt.Errorf("bench: baseline (scalediv %d, seed %d) and current (scalediv %d, seed %d) measure different workloads",
			baseline.ScaleDiv, baseline.Seed, current.ScaleDiv, current.Seed)
	}
	type key struct {
		exp, engine string
		kernels     bool
		workers     int
		indexed     bool
	}
	base := make(map[key]EngineRun)
	for _, ex := range baseline.Experiments {
		for _, run := range ex.Runs {
			base[key{ex.Name, run.Engine, run.Kernels, run.Workers, run.Indexed}] = run
		}
	}
	for _, ex := range current.Experiments {
		for _, run := range ex.Runs {
			b, ok := base[key{ex.Name, run.Engine, run.Kernels, run.Workers, run.Indexed}]
			if !ok {
				continue
			}
			matched++
			if b.Answer != run.Answer {
				return nil, 0, fmt.Errorf("bench: %s %s kernels=%v workers=%d indexed=%v: answer changed from %d to %d rows",
					ex.Name, run.Engine, run.Kernels, run.Workers, run.Indexed, b.Answer, run.Answer)
			}
			if b.ColdWallNanos <= 0 {
				continue
			}
			ratio := float64(run.ColdWallNanos) / float64(b.ColdWallNanos)
			if ratio > maxRatio {
				regs = append(regs, Regression{
					Experiment: ex.Name,
					Engine:     run.Engine,
					Kernels:    run.Kernels,
					Workers:    run.Workers,
					Indexed:    run.Indexed,
					Baseline:   b.ColdWallNanos,
					Current:    run.ColdWallNanos,
					Ratio:      ratio,
				})
			}
		}
	}
	return regs, matched, nil
}
