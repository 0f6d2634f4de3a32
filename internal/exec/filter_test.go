package exec

import (
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
)

func relXY(name string, tuples ...frel.Tuple) *frel.Relation {
	r := frel.NewRelation(frel.NewSchema(name,
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "NAME", Kind: frel.KindString},
	))
	r.Append(tuples...)
	return r
}

func drain(t *testing.T, src Source) *frel.Relation {
	t.Helper()
	rel, err := Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return rel
}

func TestFilterCombinesDegrees(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.9, frel.Crisp(24), frel.Str("a")),
		frel.NewTuple(0.5, frel.Crisp(27), frel.Str("b")),
		frel.NewTuple(1.0, frel.Crisp(99), frel.Str("c")),
	)
	mediumYoung := fuzzy.Trap(20, 25, 30, 35)
	pred := func(t frel.Tuple) float64 { return fuzzy.Eq(t.Values[0].Num, mediumYoung) }
	out := drain(t, NewFilter(NewMemSource(rel), pred))
	// (0.9, 24): min(0.9, 0.8) = 0.8; (0.5, 27): min(0.5, 1) = 0.5; 99 dropped.
	if out.Len() != 2 {
		t.Fatalf("len = %d: %v", out.Len(), out.Tuples)
	}
	if out.Tuples[0].D != 0.8 {
		t.Errorf("tuple 0 degree = %g, want 0.8", out.Tuples[0].D)
	}
	if out.Tuples[1].D != 0.5 {
		t.Errorf("tuple 1 degree = %g, want 0.5", out.Tuples[1].D)
	}
}

func TestAndShortCircuits(t *testing.T) {
	calls := 0
	p := And(
		func(frel.Tuple) float64 { calls++; return 0 },
		func(frel.Tuple) float64 { calls++; return 1 },
	)
	if got := p(frel.Tuple{}); got != 0 {
		t.Errorf("And = %g", got)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want short-circuit after 0", calls)
	}
	if got := And()(frel.Tuple{}); got != 1 {
		t.Errorf("And() = %g, want 1", got)
	}
}

func TestProjectDedupMax(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.3, frel.Crisp(1), frel.Str("Ann")),
		frel.NewTuple(0.7, frel.Crisp(2), frel.Str("Ann")),
		frel.NewTuple(0.7, frel.Crisp(3), frel.Str("Betty")),
	)
	p, err := NewProject(NewMemSource(rel), []string{"NAME"}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, p)
	if out.Len() != 2 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.Tuples[0].Values[0].Str != "Ann" || out.Tuples[0].D != 0.7 {
		t.Errorf("tuple 0 = %v", out.Tuples[0])
	}
	if out.Schema.Attrs[0].Name != "R.NAME" {
		t.Errorf("schema = %v", out.Schema)
	}
}

func TestProjectNoDedupStreams(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.3, frel.Crisp(1), frel.Str("Ann")),
		frel.NewTuple(0.7, frel.Crisp(2), frel.Str("Ann")),
	)
	p, err := NewProject(NewMemSource(rel), []string{"NAME"}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, p)
	if out.Len() != 2 {
		t.Errorf("len = %d, want duplicates kept", out.Len())
	}
}

func TestProjectUnknownRef(t *testing.T) {
	rel := relXY("R")
	if _, err := NewProject(NewMemSource(rel), []string{"NOPE"}, true); err == nil {
		t.Errorf("want error")
	}
}

func TestThreshold(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.2, frel.Crisp(1), frel.Str("a")),
		frel.NewTuple(0.5, frel.Crisp(2), frel.Str("b")),
		frel.NewTuple(0.8, frel.Crisp(3), frel.Str("c")),
	)
	out := drain(t, NewThreshold(NewMemSource(rel), 0.5))
	if out.Len() != 2 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.Tuples[0].D != 0.5 {
		t.Errorf("threshold is inclusive: %v", out.Tuples[0])
	}
}

func TestCollectAndSpillRoundTrip(t *testing.T) {
	rel := relXY("R",
		frel.NewTuple(0.5, frel.Crisp(1), frel.Str("a")),
		frel.NewTuple(0.9, frel.Crisp(2), frel.Str("b")),
	)
	got := drain(t, NewMemSource(rel))
	if !got.Equal(rel, 0) {
		t.Errorf("Collect mismatch")
	}
}
