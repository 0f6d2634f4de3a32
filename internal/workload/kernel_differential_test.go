package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fsql"
)

// kernelQueries mirrors classQueries with a kernel-eligible local
// predicate added to the outer block (and, for the uncorrelated class N,
// to the inner block too). The stock class templates carry no local
// predicates at all, so against them the fused filter kernels would never
// fire and a kernel differential would be vacuous.
// R.A = R.B compares two jittered triangular values generated around the
// same centre, so the predicate yields genuinely partial degrees rather
// than a crisp 0/1 cut.
var kernelQueries = map[string]string{
	"N":        `SELECT R.K FROM R WHERE R.A = R.B AND R.B IN (SELECT S.B FROM S WHERE S.A = S.B)%s`,
	"J":        `SELECT R.K FROM R WHERE R.A = R.B AND R.B IN (SELECT S.B FROM S WHERE S.A = R.A)%s`,
	"JX":       `SELECT R.K FROM R WHERE R.A = R.B AND R.B NOT IN (SELECT S.B FROM S WHERE S.A = R.A)%s`,
	"JA":       `SELECT R.K FROM R WHERE R.A = R.B AND R.B >= (SELECT AVG(S.B) FROM S WHERE S.A = R.A)%s`,
	"JA-COUNT": `SELECT R.K FROM R WHERE R.A = R.B AND R.K >= (SELECT COUNT(S.B) FROM S WHERE S.A = R.A)%s`,
	"JALL":     `SELECT R.K FROM R WHERE R.A = R.B AND R.B > ALL (SELECT S.B FROM S WHERE S.A = R.A)%s`,
}

// kernelDiffSeeds is the number of random cases per class and seed
// stratum (see seedStratum).
const kernelDiffSeeds = 50

// TestDifferentialKernels is the kernel-differential property test: for
// every nesting class and seed, the unnested evaluation with fused degree
// kernels must return the tuples and bit-identical degrees (zero
// tolerance) of the naive nested evaluation, serially and with 4 morsel
// workers. Each case asserts non-vacuity (the evaluation actually compiled
// fused kernels) and that the kernel query variants still classify to the
// class's expected rewrite.
func TestDifferentialKernels(t *testing.T) {
	seeds := int64(kernelDiffSeeds)
	if testing.Short() {
		seeds = 10
	}
	first := seedStratum(t) * kernelDiffSeeds
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for seed := first; seed < first+seeds; seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				withClause := ""
				if c.With > 0 {
					withClause = fmt.Sprintf(" WITH D >= %g", c.With)
				}
				query := fmt.Sprintf(kernelQueries[class], withClause)
				q, err := fsql.ParseQuery(query)
				if err != nil {
					t.Fatalf("seed %d: parse %q: %v", seed, query, err)
				}

				cat := heapCatalog(t, c.R, c.S)
				naive, err := core.NewEnv(cat).EvalNaive(q)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				for _, workers := range []int{1, 4} {
					env := core.NewEnv(cat)
					env.Parallelism = workers
					if plan := env.Explain(q); plan.Strategy != expectedStrategy[class] {
						t.Fatalf("seed %d: workers %d: class %s classified as %v (%s), want %v",
							seed, workers, class, plan.Strategy, plan.Note, expectedStrategy[class])
					}
					res, err := env.EvalUnnested(q)
					if err != nil {
						t.Fatalf("seed %d: workers %d: %v", seed, workers, err)
					}
					if env.Counters.KernelTuples.Load() == 0 {
						t.Fatalf("seed %d: class %s: workers %d compiled no fused kernels (vacuous differential) on %s",
							seed, class, workers, query)
					}
					if !naive.Equal(res, 0) {
						t.Fatalf("seed %d: class %s workers %d naive/unnested mismatch on %s\nR: %d tuples, S: %d tuples\nnaive (%d tuples):\n%v\nunnested (%d tuples):\n%v",
							seed, class, workers, query, c.R.Len(), c.S.Len(),
							naive.Len(), naive, res.Len(), res)
					}
				}
			}
		})
	}
}
