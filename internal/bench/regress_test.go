package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func regressReport(cold int64, answer int) *BenchReport {
	return &BenchReport{
		ScaleDiv: 8,
		Seed:     1,
		Experiments: []ExperimentRuns{{
			Name: "table1",
			Runs: []EngineRun{
				{Engine: "batch", Kernels: true, Workers: 1, ColdWallNanos: cold, Answer: answer},
				{Engine: "batch", Kernels: true, Workers: 4, ColdWallNanos: 2 * cold, Answer: answer},
			},
		}},
	}
}

func TestFindRegressions(t *testing.T) {
	base := regressReport(1_000_000, 100)

	// Within threshold: no findings, both runs compared.
	regs, matched, err := FindRegressions(base, regressReport(1_200_000, 100), 1.25)
	if err != nil || len(regs) != 0 || matched != 2 {
		t.Errorf("within threshold: regs=%v matched=%d err=%v", regs, matched, err)
	}
	// Past threshold: both matched runs regress.
	regs, _, err = FindRegressions(base, regressReport(1_300_000, 100), 1.25)
	if err != nil || len(regs) != 2 {
		t.Fatalf("past threshold: regs=%v err=%v", regs, err)
	}
	if regs[0].Experiment != "table1" || regs[0].Ratio < 1.29 || regs[0].Ratio > 1.31 {
		t.Errorf("regression = %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "table1 batch kernels workers=1") {
		t.Errorf("String = %q", regs[0].String())
	}
	// A changed answer cardinality is a hard error, not a slowdown.
	if _, _, err := FindRegressions(base, regressReport(1_000_000, 99), 1.25); err == nil {
		t.Errorf("changed answer: want error")
	}
	// Mismatched workloads cannot be compared.
	cur := regressReport(1_000_000, 100)
	cur.ScaleDiv = 16
	if _, _, err := FindRegressions(base, cur, 1.25); err == nil {
		t.Errorf("mismatched scalediv: want error")
	}
	if _, _, err := FindRegressions(base, base, 1.0); err == nil {
		t.Errorf("ratio <= 1: want error")
	}
	// Runs missing on either side are skipped, and only matched runs count.
	cur = regressReport(5_000_000, 100)
	cur.Experiments[0].Runs = cur.Experiments[0].Runs[:1]
	cur.Experiments[0].Runs[0].Engine = "other"
	regs, matched, err = FindRegressions(base, cur, 1.25)
	if err != nil || len(regs) != 0 || matched != 0 {
		t.Errorf("unmatched runs: regs=%v matched=%d err=%v", regs, matched, err)
	}
}

// TestFindRegressionsDisjointGrids: when the current grid's labels share
// no cell with the baseline's, nothing is compared and the matched count
// says so, however slow the current runs are.
func TestFindRegressionsDisjointGrids(t *testing.T) {
	base := regressReport(1_000_000, 100)
	cur := regressReport(9_000_000, 100)
	for i := range cur.Experiments[0].Runs {
		cur.Experiments[0].Runs[i].Kernels = false
	}
	regs, matched, err := FindRegressions(base, cur, 1.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("disjoint grids: regs=%v err=%v", regs, err)
	}
	if matched != 0 {
		t.Errorf("disjoint grids: matched = %d, want 0", matched)
	}
	// The committed baseline carries the labels the current grid uses.
	committed, err := LoadBaseline("../../BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, matched, err := FindRegressions(committed, committed, 1.25); err != nil || matched == 0 {
		t.Fatalf("committed baseline against itself: matched=%d err=%v", matched, err)
	}
	found := false
	for _, run := range committed.Experiments[0].Runs {
		found = found || (run.Engine == "batch" && run.Kernels && !run.Indexed)
	}
	if !found {
		t.Errorf("BENCH_9.json has no batch+kernels cell for the current grid to match")
	}
}

// TestFindRegressionsKernelsKey checks runs are matched on the kernels
// flag: a kernels-on run never gates against a kernels-off baseline.
func TestFindRegressionsKernelsKey(t *testing.T) {
	mk := func(kernels bool, cold int64) *BenchReport {
		return &BenchReport{
			ScaleDiv: 8, Seed: 1,
			Experiments: []ExperimentRuns{{
				Name: "table1",
				Runs: []EngineRun{{Engine: "batch", Kernels: kernels, Workers: 1,
					ColdWallNanos: cold, Answer: 10}},
			}},
		}
	}
	// Different kernels flags never match, so a huge slowdown is skipped.
	regs, _, err := FindRegressions(mk(true, 1_000_000), mk(false, 9_000_000), 1.25)
	if err != nil || len(regs) != 0 {
		t.Errorf("kernels-flag mismatch: regs=%v err=%v", regs, err)
	}
	// Same flag matches and gates.
	regs, _, err = FindRegressions(mk(true, 1_000_000), mk(true, 9_000_000), 1.25)
	if err != nil || len(regs) != 1 {
		t.Fatalf("kernels-flag match: regs=%v err=%v", regs, err)
	}
	if !strings.Contains(regs[0].String(), "batch kernels workers=1") {
		t.Errorf("String = %q", regs[0].String())
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"scalediv":8,"seed":1,"experiments":[{"name":"table1","runs":[{"engine":"batch","workers":1,"cold_wall_ns":5,"answer_rows":2}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleDiv != 8 || len(rep.Experiments) != 1 || rep.Experiments[0].Runs[0].Answer != 2 {
		t.Errorf("loaded %+v", rep)
	}
	if _, err := LoadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Errorf("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadBaseline(bad); err == nil {
		t.Errorf("bad json: want error")
	}
	// The committed baseline at the repository root stays loadable.
	rep, err = LoadBaseline("../../BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) == 0 || rep.Experiments[0].Name != "table1" {
		t.Errorf("committed baseline: %+v", rep)
	}
}
