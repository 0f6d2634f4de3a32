// Command benchcheck is the CI bench-regression smoke: it re-measures the
// merge-join comparison grid (or a subset of its experiments) with the
// same workload parameters as a committed baseline report (BENCH_N.json)
// and fails when a matched run's cold merge-join wall time regresses past
// the threshold. Differing answer cardinalities fail regardless of timing,
// and so does a grid that matches no baseline run at all: a check that
// compared nothing has not passed.
//
//	benchcheck -baseline BENCH_9.json -experiments table1 -threshold 1.25
//
// Wall-clock comparisons on shared CI runners are noisy; -warn-only keeps
// the exit status zero and leaves the findings in the log (used on the
// newer-Go legs of the matrix, where the pinned-Go leg is the gate).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		baseline    = flag.String("baseline", "BENCH_9.json", "committed baseline report to compare against")
		experiments = flag.String("experiments", "table1", "comma-separated experiments to re-measure (empty = all)")
		threshold   = flag.Float64("threshold", 1.25, "fail when cold wall time exceeds baseline by this ratio")
		warnOnly    = flag.Bool("warn-only", false, "report regressions but exit 0")
		dir         = flag.String("dir", "", "scratch directory (default: system temp)")
	)
	flag.Parse()

	base, err := bench.LoadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	var names []string
	if *experiments != "" {
		names = strings.Split(*experiments, ",")
	}
	// Indexes on: the re-measured grid includes the indexed ablation runs,
	// so a baseline carrying them gets its indexed cold walls gated too.
	cfg := bench.Config{Dir: *dir, ScaleDiv: base.ScaleDiv, Seed: base.Seed, Indexes: true}
	cur, err := cfg.ReportFor(names...)
	if err != nil {
		fatal(err)
	}
	regs, matched, err := bench.FindRegressions(base, cur, *threshold)
	if err != nil {
		fatal(err)
	}
	if matched == 0 {
		fatal(fmt.Errorf("no run of the re-measured grid matches a run of %s; nothing was compared", *baseline))
	}
	if len(regs) == 0 {
		fmt.Printf("benchcheck: %d matched runs within %.2fx of %s\n", matched, *threshold, *baseline)
		return
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchcheck: regression: %s\n", r)
	}
	if *warnOnly {
		fmt.Printf("benchcheck: %d of %d matched runs regressed, ignored (-warn-only)\n", len(regs), matched)
		return
	}
	fmt.Printf("benchcheck: %d of %d matched runs regressed past %.2fx of %s\n", len(regs), matched, *threshold, *baseline)
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
