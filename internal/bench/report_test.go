package bench

import (
	"strings"
	"testing"
)

// TestReportComparesEngines runs the comparison grid at a tiny scale and
// checks its invariants: every experiment carries one batch+kernels run
// per worker count (the cells the committed baselines key on), the runs
// agree on the answer, dispatch morsels, and the warm runs hit the sort
// cache.
func TestReportComparesEngines(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), ScaleDiv: 512, Seed: 3}
	rep, err := cfg.ReportFor()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 4 {
		t.Fatalf("report has %d experiments, want 4", len(rep.Experiments))
	}
	for _, ex := range rep.Experiments {
		if len(ex.Runs) != 2 {
			t.Fatalf("%s: %d runs, want one per worker count (1, 4)", ex.Name, len(ex.Runs))
		}
		for i, run := range ex.Runs {
			if run.Engine != "batch" || !run.Kernels || run.Indexed {
				t.Errorf("%s: run %d labelled engine=%q kernels=%v indexed=%v, want batch+kernels",
					ex.Name, i, run.Engine, run.Kernels, run.Indexed)
			}
			if want := []int{1, 4}[i]; run.Workers != want {
				t.Errorf("%s: run %d has %d workers, want %d", ex.Name, i, run.Workers, want)
			}
			if run.Morsels == 0 {
				t.Errorf("%s: w=%d dispatched no morsels", ex.Name, run.Workers)
			}
			if run.Answer != ex.Runs[0].Answer {
				t.Errorf("%s: w=%d answer %d differs from %d",
					ex.Name, run.Workers, run.Answer, ex.Runs[0].Answer)
			}
			if run.SortCacheHits == 0 || run.SortCacheMisses == 0 {
				t.Errorf("%s: w=%d cache hits=%d misses=%d, want both nonzero",
					ex.Name, run.Workers, run.SortCacheHits, run.SortCacheMisses)
			}
			if run.ColdWallNanos <= 0 || run.WarmWallNanos <= 0 {
				t.Errorf("%s: w=%d non-positive wall times", ex.Name, run.Workers)
			}
		}
	}
	grid := rep.RenderGrid()
	for _, label := range []string{"batch+kernels", "morsels"} {
		if !strings.Contains(grid, label) {
			t.Errorf("grid is missing %q:\n%s", label, grid)
		}
	}
	// The legend line appears once per experiment, not once per run.
	if n := strings.Count(grid, "engine"); n != len(rep.Experiments) {
		t.Errorf("grid prints %d legend lines, want %d (one per experiment)", n, len(rep.Experiments))
	}
	// ReportFor restricts the grid to the named experiments.
	one, err := cfg.ReportFor("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Experiments) != 1 || one.Experiments[0].Name != "table1" {
		t.Errorf("ReportFor(table1) measured %d experiments", len(one.Experiments))
	}
}
