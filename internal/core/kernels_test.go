package core

import (
	"context"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// kernelTestEnv builds an environment with a relation whose
// local predicates are kernel-eligible and a linguistic term for the
// string-literal settlement path.
func kernelTestEnv(t *testing.T) *Env {
	t.Helper()
	r := frel.NewRelation(frel.NewSchema("R",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i := 0; i < 200; i++ {
		r.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Num(fuzzy.Tri(float64(i%37)-2, float64(i%37), float64(i%37)+2)),
			frel.Crisp(float64(i%11))))
	}
	s := frel.NewRelation(frel.NewSchema("S",
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber}))
	for i := 0; i < 150; i++ {
		s.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Num(fuzzy.Tri(float64(i%41)-3, float64(i%41), float64(i%41)+3))))
	}
	env := heapEnv(t, r, s)
	if err := env.cat.DefineTerm("medium", fuzzy.Trap(10, 15, 22, 27)); err != nil {
		t.Fatal(err)
	}
	return env
}

// kernelQueries are queries whose leaves carry kernel-eligible local
// predicates (comparison, NEAR, linguistic term).
var kernelQueries = []string{
	`SELECT R.K FROM R WHERE R.A > 12 AND R.B <= 7`,
	`SELECT R.K FROM R WHERE R.A NEAR 18 WITHIN 6`,
	`SELECT R.K FROM R WHERE R.A = "medium"`,
	`SELECT R.K FROM R, S WHERE R.A = S.A AND R.B > 3`,
	`SELECT R.K FROM R WHERE R.B IN (SELECT S.K FROM S WHERE S.A = R.A)`,
}

// TestKernelCompilationMatchesInterpreted checks every kernel-eligible
// query returns, through the compiled kernels, the answer of the
// interpreted naive evaluator at zero tolerance, and that the compiled
// kernels actually ran.
func TestKernelCompilationMatchesInterpreted(t *testing.T) {
	for _, qs := range kernelQueries {
		q, err := fsql.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		env := kernelTestEnv(t)
		got, err := env.EvalUnnested(q)
		if err != nil {
			t.Fatalf("%s: unnested: %v", qs, err)
		}
		if env.Counters.KernelTuples.Load() == 0 {
			t.Errorf("%s: compiled kernels did not fire", qs)
		}
		want, err := kernelTestEnv(t).EvalNaive(q)
		if err != nil {
			t.Fatalf("%s: naive: %v", qs, err)
		}
		if !got.Equal(want, 0) {
			t.Errorf("%s: answers differ at zero tolerance: %d vs %d tuples",
				qs, got.Len(), want.Len())
		}
	}
}

// TestKernelFusedNodeInAnalyze checks EXPLAIN ANALYZE reports the fused
// filter chain as a kernel(fused) node with its tuple counter.
func TestKernelFusedNodeInAnalyze(t *testing.T) {
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.A > 12 AND R.B <= 7`)
	if err != nil {
		t.Fatal(err)
	}
	env := kernelTestEnv(t)
	_, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	snap := es.Plan()
	kf := snap.Find("kernel(fused)")
	if kf == nil {
		t.Fatalf("no kernel(fused) node in:\n%s", snap.Render())
	}
	if kf.KernelTuples == 0 {
		t.Fatalf("kernel(fused) node reports no kernel tuples: %+v", kf)
	}
	if snap.Find("filter") != nil {
		t.Fatalf("interpreted filter node alongside fused kernel in:\n%s", snap.Render())
	}
}

// TestKernelIneligibleFallback checks the kernel bridge never changes
// which queries are answerable or what they answer: an unknown linguistic
// term errors in the unnested evaluation exactly as in the naive one, and
// a kernel-eligible query answers like the naive evaluator at zero
// tolerance.
func TestKernelIneligibleFallback(t *testing.T) {
	env := kernelTestEnv(t)
	bad, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.A = "nosuchterm"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.EvalUnnested(bad); err == nil {
		t.Fatal("unknown term did not error in the unnested evaluation")
	}
	if _, err := kernelTestEnv(t).EvalNaive(bad); err == nil {
		t.Fatal("unknown term did not error in the naive evaluation")
	}
	q, err := fsql.ParseQuery(`SELECT R.K FROM R WHERE R.A > 12`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.EvalUnnested(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernelTestEnv(t).EvalNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Errorf("answers differ at zero tolerance: %d vs %d tuples", got.Len(), want.Len())
	}
}
