package workload

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/storage"
)

// expectedStrategy is the rewrite each class must classify to; a naive
// fallback would make the differential comparison vacuous.
var expectedStrategy = map[string]core.Strategy{
	"N":        core.StrategyChain,
	"J":        core.StrategyChain,
	"JX":       core.StrategyAntiJoin,
	"JA":       core.StrategyGroupAgg,
	"JA-COUNT": core.StrategyGroupAgg,
	"JALL":     core.StrategyAllAnti,
}

// diffSeeds is the number of random cases per class and seed stratum; the
// acceptance bar of the harness is >= 200 pairs per class with zero
// mismatches.
const diffSeeds = 200

// heapCatalog loads rels into heaps, named after their schemas, of a fresh
// catalog on an in-memory file system without a write-ahead log.
func heapCatalog(t testing.TB, rels ...*frel.Relation) *catalog.Catalog {
	t.Helper()
	m, err := storage.NewManagerOptions("db", storage.ManagerOptions{PoolPages: 64, FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(m)
	for _, rel := range rels {
		if _, err := LoadRelation(cat, rel.Schema.Name, rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// seedStratum reads KERNEL_SEED, the seed stratum the differential tests
// sweep: stratum s covers seeds [s*n, (s+1)*n) of a test drawing n seeds
// per class, so the CI matrix legs sweep disjoint seed ranges on top of
// the default stratum 0.
func seedStratum(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("KERNEL_SEED")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad KERNEL_SEED %q: %v", v, err)
	}
	return n
}

// TestDifferentialUnnesting validates the equivalence theorems 4.1-8.1 by
// randomized differential testing: for every class and seed, the naive
// nested evaluation and the unnested rewrite over catalog heaps must
// return the same tuples with bit-identical membership degrees (zero
// tolerance). KERNEL_SEED selects the seed stratum.
func TestDifferentialUnnesting(t *testing.T) {
	seeds := int64(diffSeeds)
	if testing.Short() {
		seeds = 25
	}
	first := seedStratum(t) * diffSeeds
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			for seed := first; seed < first+seeds; seed++ {
				c, err := NewDiffCase(class, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				q, err := fsql.ParseQuery(c.Query)
				if err != nil {
					t.Fatalf("seed %d: parse %q: %v", seed, c.Query, err)
				}
				env := core.NewEnv(heapCatalog(t, c.R, c.S))

				if plan := env.Explain(q); plan.Strategy != expectedStrategy[class] {
					t.Fatalf("seed %d: class %s classified as %v (%s), want %v",
						seed, class, plan.Strategy, plan.Note, expectedStrategy[class])
				}

				naive, err := env.EvalNaive(q)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				unnested, err := env.EvalUnnested(q)
				if err != nil {
					t.Fatalf("seed %d: unnested: %v", seed, err)
				}
				if !naive.Equal(unnested, 0) {
					t.Fatalf("seed %d: class %s mismatch on %s\nR: %d tuples, S: %d tuples\nnaive (%d tuples):\n%v\nunnested (%d tuples):\n%v",
						seed, class, c.Query, c.R.Len(), c.S.Len(),
						naive.Len(), naive, unnested.Len(), unnested)
				}

				// A repeat in the same env is served from the sort-order
				// cache the first unnested run populated, checking hit
				// correctness against the oracle too.
				warm, err := env.EvalUnnested(q)
				if err != nil {
					t.Fatalf("seed %d: unnested repeat: %v", seed, err)
				}
				if !naive.Equal(warm, 0) {
					t.Fatalf("seed %d: class %s cached-order mismatch on %s\nnaive (%d tuples):\n%v\nrepeat (%d tuples):\n%v",
						seed, class, c.Query,
						naive.Len(), naive, warm.Len(), warm)
				}
			}
		})
	}
}
