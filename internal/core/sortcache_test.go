package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frel"
	"repro/internal/fsql"
)

// TestSortCacheRepeatedQueryHits is the headline property: re-running a
// query on unmodified relations re-sorts nothing — the EXPLAIN ANALYZE
// sort nodes report cache hits with zero comparisons and zero runs.
func TestSortCacheRepeatedQueryHits(t *testing.T) {
	env := analyzeEnv(t, 400, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	first, es1, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hits := env.Counters.SortCacheHits.Load(); hits != 0 {
		t.Fatalf("first run reported %d cache hits, want 0", hits)
	}
	misses := env.Counters.SortCacheMisses.Load()
	if misses == 0 {
		t.Fatal("first run stored no sort orders")
	}

	second, es2, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second, 0) {
		t.Fatalf("cached evaluation changed the answer:\nfirst:\n%v\nsecond:\n%v", first, second)
	}
	if got := env.Counters.SortCacheMisses.Load(); got != misses {
		t.Fatalf("second run missed the cache: misses %d -> %d", misses, got)
	}
	if hits := env.Counters.SortCacheHits.Load(); hits != misses {
		t.Fatalf("second run hits = %d, want one per first-run miss (%d)", hits, misses)
	}
	// The second run's sort nodes must show a hit and no sorting work.
	snap := es2.Plan()
	sortNode := snap.Find("sort")
	if sortNode == nil {
		t.Fatalf("no sort node in:\n%s", snap.Render())
	}
	if sortNode.CacheHits != 1 {
		t.Fatalf("sort node CacheHits = %d, want 1:\n%s", sortNode.CacheHits, snap.Render())
	}
	if sortNode.Comparisons != 0 || sortNode.SortRuns != 0 || sortNode.SpillBytes != 0 {
		t.Fatalf("cached sort still did work: %+v", sortNode)
	}
	// And the first run's were misses that did sort.
	if n := es1.Plan().Find("sort"); n.CacheMisses != 1 || n.SortRuns == 0 {
		t.Fatalf("first-run sort node not a building miss: %+v", n)
	}
}

// cacheRel builds a small relation with the R(K, A, B) shape the analyze
// query joins on.
func cacheRel(name string, n int, seed int64) *frel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := frel.NewRelation(frel.NewSchema(name,
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber}))
	for i := 0; i < n; i++ {
		r.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Crisp(float64(rng.Intn(20))),
			frel.Crisp(float64(rng.Intn(20)))))
	}
	return r
}

// TestSortCacheAliasSelfJoin: a self-join through an alias (R and R T)
// shares R's cached orders. A repeat run re-sorts nothing; an append to
// R's heap makes the next run re-sort, and its answer is the naive
// evaluation's.
func TestSortCacheAliasSelfJoin(t *testing.T) {
	const aliasQuery = `SELECT R.K FROM R WHERE R.B IN (SELECT T.B FROM R T WHERE T.A = R.A)`
	q, err := fsql.ParseQuery(aliasQuery)
	if err != nil {
		t.Fatal(err)
	}
	r := cacheRel("R", 60, 7)
	env := heapEnv(t, r)
	first, err := env.EvalUnnested(q)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple satisfies the self-membership, so the answer is R itself.
	if first.Len() != r.Len() {
		t.Fatalf("self-join answer has %d tuples, want %d", first.Len(), r.Len())
	}
	misses := env.Counters.SortCacheMisses.Load()
	second, err := env.EvalUnnested(q)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second, 0) {
		t.Fatal("aliased repeat run changed the answer")
	}
	if env.Counters.SortCacheHits.Load() == 0 {
		t.Fatal("aliased repeat run did not hit the cache")
	}
	if got := env.Counters.SortCacheMisses.Load(); got != misses {
		t.Fatalf("aliased repeat run missed the cache: misses %d -> %d", misses, got)
	}

	h, err := env.cat.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(frel.NewTuple(1, frel.Crisp(999), frel.Crisp(3), frel.Crisp(3))); err != nil {
		t.Fatal(err)
	}
	got, err := env.EvalUnnested(q)
	if err != nil {
		t.Fatal(err)
	}
	if env.Counters.SortCacheMisses.Load() == misses {
		t.Fatal("append did not invalidate the aliased orders")
	}
	if got.Len() != r.Len()+1 {
		t.Fatalf("answer after append has %d tuples, want %d", got.Len(), r.Len()+1)
	}
	want, err := NewEnv(env.cat).EvalNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatalf("answer after append differs from the naive evaluation:\ngot:\n%v\nwant:\n%v", got, want)
	}
}

// TestSortCacheSessionInsertAndDelete drives invalidation through the
// statement layer on a disk-backed session: INSERT appends to the heap
// file (version bump), DELETE rewrites the relation through the catalog
// (fresh heap-file identity). Both must defeat the cache.
func TestSortCacheSessionInsertAndDelete(t *testing.T) {
	sess, err := OpenSession(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecScript(`
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO R VALUES (2, 2, 20);
		INSERT INTO R VALUES (3, 3, 30);
		INSERT INTO S VALUES (1, 1, 10);
		INSERT INTO S VALUES (2, 2, 25);
	`); err != nil {
		t.Fatal(err)
	}
	query := func() *frel.Relation {
		t.Helper()
		answers, err := sess.ExecScript(analyzeQuery)
		if err != nil {
			t.Fatal(err)
		}
		return answers[0]
	}
	if got := query(); got.Len() != 1 {
		t.Fatalf("seed answer = %v", got.Tuples)
	}
	query()
	if sess.Env.Counters.SortCacheHits.Load() == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	// INSERT a matching S row: R.K = 2 now joins.
	if _, err := sess.ExecScript(`INSERT INTO S VALUES (9, 2, 20)`); err != nil {
		t.Fatal(err)
	}
	if got := query(); got.Len() != 2 {
		t.Fatalf("answer after INSERT = %v, want R.K 1 and 2", got.Tuples)
	}

	// DELETE it again: the catalog swaps in a rewritten heap file.
	if _, err := sess.ExecScript(`DELETE FROM S WHERE S.K = 9`); err != nil {
		t.Fatal(err)
	}
	if got := query(); got.Len() != 1 {
		t.Fatalf("answer after DELETE = %v, want only R.K 1", got.Tuples)
	}
}

// TestSortCacheCatalogReload reopens a database directory and checks the
// new session sees the stored data (a reload starts with a cold cache and
// fresh heap-file identities).
func TestSortCacheCatalogReload(t *testing.T) {
	dir := t.TempDir()
	sess, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecScript(`
		CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER);
		CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER);
		INSERT INTO R VALUES (1, 1, 10);
		INSERT INTO S VALUES (1, 1, 10);
	`); err != nil {
		t.Fatal(err)
	}
	if answers, err := sess.ExecScript(analyzeQuery); err != nil || answers[0].Len() != 1 {
		t.Fatalf("answers=%v err=%v", answers, err)
	}

	reopened, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reopened.Env.Counters.SortCacheHits.Load(); hits != 0 {
		t.Fatalf("reopened session starts with %d cache hits", hits)
	}
	answers, err := reopened.ExecScript(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Len() != 1 {
		t.Fatalf("reloaded answer = %v", answers[0].Tuples)
	}
	if reopened.Env.Counters.SortCacheMisses.Load() == 0 {
		t.Fatal("reloaded query should rebuild (miss) its sort orders")
	}
}
