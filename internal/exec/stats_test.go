package exec

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/frel"
)

// TestObserveRng checks the bulk Rng(r) observations the merge operators
// flush per morsel: the scan lengths 3, 0 and 7, 2 in two flushes, plus
// an empty flush that records nothing.
func TestObserveRng(t *testing.T) {
	s := NewOpStats("merge-join", "R.B = S.B")
	s.ObserveRngBulk(2, 3, 0, 3)
	s.ObserveRngBulk(0, 0, math.MaxInt64, 0)
	s.ObserveRngBulk(2, 9, 2, 7)
	snap := s.Snapshot()
	if snap.RngCount != 4 || snap.RngMin != 0 || snap.RngMax != 7 {
		t.Fatalf("rng stats = n%d min%d max%d, want n4 min0 max7", snap.RngCount, snap.RngMin, snap.RngMax)
	}
	if snap.RngAvg != 3 {
		t.Fatalf("RngAvg = %g, want 3", snap.RngAvg)
	}
}

func TestSnapshotTree(t *testing.T) {
	root := NewOpStats("project", "")
	child := NewOpStats("scan", "R")
	root.AddChild(child)
	root.RowsOut.Add(2)
	root.Comparisons.Add(5)
	child.RowsOut.Add(10)
	child.DegreeEvals.Add(4)

	snap := root.Snapshot()
	rows, cmp, deg := snap.Totals()
	if rows != 12 || cmp != 5 || deg != 4 {
		t.Fatalf("Totals = (%d, %d, %d), want (12, 5, 4)", rows, cmp, deg)
	}
	if got := snap.Find("scan"); got == nil || got.Label != "R" {
		t.Fatalf("Find(scan) = %+v", got)
	}
	if snap.Find("sort") != nil {
		t.Fatal("Find(sort) found a node that does not exist")
	}
	r := snap.Render()
	if !strings.Contains(r, "project") || !strings.Contains(r, "scan [R]") {
		t.Fatalf("Render missing operators:\n%s", r)
	}
	// The snapshot is the wire format of fuzzybench -json; it must be
	// JSON-serializable with the documented field names.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"op"`, `"rows_out"`, `"degree_evals"`, `"children"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s: %s", key, b)
		}
	}
}

func TestStatedCountsRows(t *testing.T) {
	sch := frel.NewSchema("R", frel.Attribute{Name: "X", Kind: frel.KindNumber})
	rel := frel.NewRelation(sch)
	for i := 0; i < 5; i++ {
		rel.Append(frel.NewTuple(1, frel.Crisp(float64(i))))
	}
	node := NewOpStats("scan", "R")
	st := NewStated(NewMemSource(rel), node)
	if st.Schema() != sch {
		t.Fatal("Schema not forwarded")
	}
	out, err := Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("collected %d tuples, want 5", out.Len())
	}
	if got := node.RowsOut.Load(); got != 5 {
		t.Fatalf("RowsOut = %d, want 5", got)
	}
	if node.WallNanos.Load() < 0 {
		t.Fatal("negative wall time")
	}
}
