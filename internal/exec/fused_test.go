package exec

import (
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/kernel"
)

// fusedProgram compiles the two-step chain the fused-filter tests run:
// X > "around 20" fused with X NEAR 30 WITHIN tol.
func fusedProgram(t testing.TB) *kernel.Program {
	t.Helper()
	prog, err := kernel.Compile([]kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Tri(10, 20, 30)))},
		{Kind: kernel.StepNear, Tol: fuzzy.Tri(-25, 0, 25),
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Crisp(30)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// interpretedChain is the closure-evaluator equivalent of fusedProgram
// over the same source, charging DegreeEvals exactly like the compiled
// predicate closures do (once per predicate call).
func interpretedChain(src Source, z float64, c *OpStats) Source {
	konst1 := frel.Num(fuzzy.Tri(10, 20, 30))
	konst2 := fuzzy.Crisp(30)
	tol := fuzzy.Tri(-25, 0, 25)
	p1 := func(t frel.Tuple) float64 {
		c.DegreeEvals.Add(1)
		return frel.Degree(fuzzy.OpGt, t.Values[1], konst1)
	}
	p2 := func(t frel.Tuple) float64 {
		c.DegreeEvals.Add(1)
		return fuzzy.ApproxEq(t.Values[1].Num, konst2, tol)
	}
	return NewThreshold(NewFilter(NewFilter(src, p1), p2), z)
}

// TestFusedFilterMatchesInterpreted cross-checks the fused filter chain
// against the equivalent stack of interpreted Filter operators followed
// by a Threshold: identical output sequences and identical
// degree-evaluation counts — the kernel evaluates later predicates only
// on tuples earlier ones kept, exactly like the chain.
func TestFusedFilterMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, z := range []float64{0, 0.35, 0.8} {
		for trial := 0; trial < 8; trial++ {
			r := randomRel("R", 200+rng.Intn(300), 60, 6, rng)

			ck := testNode()
			gotBatch := batchDrain(t, NewFusedFilter(NewMemSource(r), fusedProgram(t), z, ck))
			kernelEvals := ck.DegreeEvals.Load()

			ci := testNode()
			want := batchDrain(t, interpretedChain(NewMemSource(r), z, ci))
			sameSequence(t, "fused filter", gotBatch, want)
			if kernelEvals != ci.DegreeEvals.Load() {
				t.Fatalf("z=%g: kernel made %d degree evals, interpreted chain %d",
					z, kernelEvals, ci.DegreeEvals.Load())
			}
			if ck.KernelTuples.Load() != int64(r.Len()) {
				t.Fatalf("z=%g: KernelTuples %d, want %d", z, ck.KernelTuples.Load(), r.Len())
			}
		}
	}
}

// TestFusedFilterStats checks that the fused filter's node receives the
// kernel observability counter and the chain's degree evaluations: the
// first step on every tuple, the second on each tuple the first kept.
func TestFusedFilterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel("R", 120, 60, 6, rng)
	st := NewOpStats("kernel(fused)", "R")
	batchDrain(t, NewFusedFilter(NewMemSource(r), fusedProgram(t), 0, st))
	snap := st.Snapshot()
	if snap.KernelTuples != int64(r.Len()) {
		t.Fatalf("stats KernelTuples = %d, want %d", snap.KernelTuples, r.Len())
	}
	konst := frel.Num(fuzzy.Tri(10, 20, 30))
	want := int64(r.Len())
	for _, tp := range r.Tuples {
		if fuzzy.Min(tp.D, frel.Degree(fuzzy.OpGt, tp.Values[1], konst)) > 0 {
			want++
		}
	}
	if snap.DegreeEvals != want {
		t.Fatalf("stats DegreeEvals = %d, want %d", snap.DegreeEvals, want)
	}
}

// TestKernelPipelineAllocs is the allocation gate of the compiled path:
// the fused scan -> filter -> threshold -> project chain must run at
// arena-level allocation cost, at most 0.01 allocations per tuple.
// Skipped under -race, which inflates allocation counts.
func TestKernelPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(23))
	r := randomRel("R", 40000, 200, 3, rng)
	// High-selectivity steps: every tuple is evaluated and re-graded by
	// both, so the gate measures the full per-tuple kernel cost.
	prog, err := kernel.Compile([]kernel.Step{
		{Kind: kernel.StepCompare, Op: fuzzy.OpGt,
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Tri(-20, -10, 0)))},
		{Kind: kernel.StepNear, Tol: fuzzy.Tri(-250, 0, 250),
			Left: kernel.Column(1), Right: kernel.Constant(frel.Num(fuzzy.Crisp(100)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testNode()

	var rows int
	allocs := testing.AllocsPerRun(5, func() {
		ff := NewFusedFilter(NewMemSource(r), prog, 0.01, st)
		proj, err := NewProject(ff, []string{"R.ID"}, false)
		if err != nil {
			t.Fatal(err)
		}
		it, err := proj.Open()
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			b, ok := it.NextBatch()
			if !ok {
				break
			}
			rows += len(b)
		}
		it.Close()
	})
	if rows == 0 {
		t.Fatal("fused pipeline produced no tuples")
	}
	perTuple := allocs / float64(rows)
	if perTuple > 0.01 {
		t.Errorf("fused pipeline allocates %.4f allocs/tuple (%.0f allocs for %d tuples), want <= 0.01",
			perTuple, allocs, rows)
	}
}
