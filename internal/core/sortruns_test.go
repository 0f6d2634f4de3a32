package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/plan"
	"repro/internal/storage"
)

// tieCatalog loads T(X, SEQ) with n tie-heavy tuples: X takes five
// distributions, two of them equal in support but not in core, and SEQ
// is the base-heap position.
func tieCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewManager(t.TempDir(), 32))
	h, err := cat.CreateRelation("T", frel.NewSchema("T",
		frel.Attribute{Name: "X", Kind: frel.KindNumber},
		frel.Attribute{Name: "SEQ", Kind: frel.KindNumber}))
	if err != nil {
		t.Fatal(err)
	}
	xs := []fuzzy.Trapezoid{
		fuzzy.Crisp(5), fuzzy.Interval(1, 9), {A: 1, B: 3, C: 4, D: 9},
		fuzzy.Tri(0, 5, 10), fuzzy.Crisp(-2),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		if err := h.Append(frel.NewTuple(float64(1+rng.Intn(10))/10,
			frel.Num(xs[rng.Intn(len(xs))]), frel.Crisp(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// tieEnv is a fresh environment over cat whose 4-page sort memory cuts
// many runs.
func tieEnv(cat *catalog.Catalog) *Env {
	env := NewEnv(cat)
	env.SortMemPages = 4
	return env
}

// sortedSeq returns T sorted on X the way a merge-join input is served,
// and the statistics node of the sorted source.
func sortedSeq(t *testing.T, env *Env, total bool) ([]frel.Tuple, *exec.OpStats) {
	t.Helper()
	out := sortedScan(t, env, fsql.TableRef{Name: "T"}, total)
	rel, err := exec.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Tuples, out.Node
}

// sortedScan compiles a plain scan of tr and sorts it on X.
func sortedScan(t *testing.T, env *Env, tr fsql.TableRef, total bool) *exec.Stated {
	t.Helper()
	src, base, err := env.compileLeaf(&plan.Scan{Table: tr})
	if err != nil {
		t.Fatal(err)
	}
	out, err := env.sortSource(src, base, "X", total)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSortServedMatchesIndexServed: on a tie-heavy relation, the external
// sort and the persistent order index serve the identical tuple sequence
// — ties in base-heap position order on both sides — for the interval
// order and the tie-broken total order (DESIGN §14).
func TestSortServedMatchesIndexServed(t *testing.T) {
	cat := tieCatalog(t, 3000)
	for _, total := range []bool{false, true} {
		sorted, _ := sortedSeq(t, tieEnv(cat), total)
		if _, err := cat.CreateIndex("ix_t_x", "T", "X"); err != nil {
			t.Fatal(err)
		}
		got, node := sortedSeq(t, tieEnv(cat), total)
		if node.IndexHits.Load() != 1 {
			t.Fatalf("total=%v: index did not serve the input", total)
		}
		if len(got) != len(sorted) {
			t.Fatalf("total=%v: %d index-served tuples, %d sorted", total, len(got), len(sorted))
		}
		for i := range sorted {
			if !reflect.DeepEqual(got[i], sorted[i]) {
				t.Fatalf("total=%v: position %d: index served %v, sort served %v", total, i, got[i], sorted[i])
			}
		}
		if err := cat.DropIndex("ix_t_x"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplainSortTruthful: a cold sort charges its input scan's rows and
// read time to the scan node, a sort node's wall covers its child's, and
// a warm hit's streamed merge is charged to the sort phase.
func TestExplainSortTruthful(t *testing.T) {
	const n = 2000
	env := analyzeEnv(t, n, 1)
	q, err := fsql.ParseQuery(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, es, err := env.EvalUnnestedAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var scans, sorts int
	var walk func(s *exec.StatsSnapshot)
	walk = func(s *exec.StatsSnapshot) {
		switch s.Op {
		case "scan":
			scans++
			if s.RowsOut != n || s.WallNanos <= 0 {
				t.Errorf("scan [%s] reports rows=%d wall=%dns, want %d rows and its read time", s.Label, s.RowsOut, s.WallNanos, n)
			}
		case "sort":
			sorts++
			if s.SortRuns < 2 {
				t.Errorf("sort [%s] made %d runs, want a multi-run sort", s.Label, s.SortRuns)
			}
			for _, c := range s.Children {
				if s.WallNanos < c.WallNanos {
					t.Errorf("sort [%s] wall %dns is below its child's %dns", s.Label, s.WallNanos, c.WallNanos)
				}
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	plan := es.Plan()
	walk(plan)
	if scans == 0 || sorts == 0 {
		t.Fatalf("plan has %d scans and %d sorts:\n%s", scans, sorts, plan.Render())
	}

	env.ResetStats()
	if _, err := env.EvalUnnested(q); err != nil {
		t.Fatal(err)
	}
	if env.Counters.SortCacheHits.Load() == 0 {
		t.Fatal("warm run did not hit the sort cache")
	}
	if env.Phases.SortWall <= 0 {
		t.Fatal("warm hit charged no time to the sort phase")
	}
}

// cachedRuns counts the run files held by the environment's sort cache.
func cachedRuns(e *Env) int {
	n := 0
	for _, ent := range e.sortCache {
		if ent.runs != nil {
			n += ent.runs.Len()
		}
	}
	return n
}

// tmpFiles counts the temporary heap files in dir.
func tmpFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			n++
		}
	}
	return n
}

// TestSortRunFileHygiene: invalidation, eviction, ReleaseSortCache and
// session close leave no run file behind — the manager's live temps are
// exactly the cached run sets' runs, every other temp file is back in the
// recycle pool, and a closed session leaves none on disk.
func TestSortRunFileHygiene(t *testing.T) {
	dir := t.TempDir()
	sess, err := OpenSession(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	sess.Env.SortMemPages = 2
	mgr := sess.Catalog().Manager()
	script := []string{"CREATE TABLE R (K NUMBER, A NUMBER, B NUMBER)", "CREATE TABLE S (K NUMBER, A NUMBER, B NUMBER)"}
	for i := 0; i < 600; i++ {
		script = append(script, fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d)", i, i%7, i%11),
			fmt.Sprintf("INSERT INTO S VALUES (%d, %d, %d)", i, i%5, i%13))
	}
	if _, err := sess.ExecScript(strings.Join(script, ";\n")); err != nil {
		t.Fatal(err)
	}
	checkLive := func(when string) {
		t.Helper()
		if live, cached := mgr.LiveTemps(), cachedRuns(sess.Env); live != cached {
			t.Fatalf("%s: %d live temp files, %d held by the cache", when, live, cached)
		}
	}
	if _, err := sess.ExecScript(analyzeQuery); err != nil {
		t.Fatal(err)
	}
	if cachedRuns(sess.Env) < 4 {
		t.Fatalf("cold query cached %d runs, want multi-run sorts", cachedRuns(sess.Env))
	}
	checkLive("after the cold query")
	if _, err := sess.ExecScript("INSERT INTO S VALUES (999, 1, 1);\n" + analyzeQuery); err != nil {
		t.Fatal(err)
	}
	checkLive("after an append invalidation")

	// Eviction: overflowing the cache retires every displaced run set,
	// and the statement end drops them.
	order, err := extsort.ByAttr(xSchemaCore(), "X")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= sortCacheMaxEntries; i++ {
		in := &sliceBatches{tuples: []frel.Tuple{frel.NewTuple(1, frel.Crisp(float64(i)))}}
		rs, _, err := extsort.NewSorter(mgr, 4).SortRuns(in, xSchemaCore(), order)
		if err != nil {
			t.Fatal(err)
		}
		sess.Env.storeSort(sortKey{attr: 100 + i}, &sortEntry{runs: rs})
	}
	sess.Env.dropStatementRuns()
	checkLive("after an eviction")
	if n := len(sess.Env.sortCache); n >= sortCacheMaxEntries {
		t.Fatalf("cache holds %d entries after the eviction", n)
	}

	if _, err := sess.ExecScript(analyzeQuery); err != nil {
		t.Fatal(err)
	}
	sess.Env.ReleaseSortCache()
	if live := mgr.LiveTemps(); live != 0 {
		t.Fatalf("ReleaseSortCache left %d live temp files", live)
	}
	if _, err := sess.ExecScript(analyzeQuery); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tmpFiles(t, dir); n != 0 {
		t.Fatalf("closed session left %d temp files on disk", n)
	}
}

func xSchemaCore() *frel.Schema {
	return frel.NewSchema("X", frel.Attribute{Name: "X", Kind: frel.KindNumber})
}

// sliceBatches serves tuples as one batch.
type sliceBatches struct{ tuples []frel.Tuple }

func (s *sliceBatches) NextBatch() ([]frel.Tuple, bool) {
	b := s.tuples
	s.tuples = nil
	return b, len(b) > 0
}

func (s *sliceBatches) Err() error { return nil }

// TestAliasSelfJoinStreamsOneRunSet: FROM R X, R Y sorts R once and
// streams two merges over the one cached run set, open at the same time.
func TestAliasSelfJoinStreamsOneRunSet(t *testing.T) {
	env := tieEnv(tieCatalog(t, 1500))
	q, err := fsql.ParseQuery(`SELECT X.SEQ FROM T X WHERE X.X NOT IN (SELECT Y.X FROM T Y WHERE Y.SEQ = X.SEQ)`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.EvalUnnested(q)
	if err != nil {
		t.Fatal(err)
	}
	if env.Counters.SortCacheMisses.Load() != 1 || env.Counters.SortCacheHits.Load() != 1 {
		t.Fatalf("self-join sorts: %d misses, %d hits, want one of each",
			env.Counters.SortCacheMisses.Load(), env.Counters.SortCacheHits.Load())
	}
	want, err := NewEnv(env.cat).EvalNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatalf("self-join answer differs from the naive evaluation:\ngot:\n%v\nwant:\n%v", got, want)
	}

	// Two merges over the cached run set, pulled in lockstep.
	out := sortedScan(t, env, fsql.TableRef{Name: "T", Alias: "X"}, false)
	a, err := out.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := out.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rows := 0
	for {
		ba, okA := a.NextBatch()
		ba = slices.Clone(ba)
		bb, okB := b.NextBatch()
		if okA != okB {
			t.Fatalf("interleaved merges ended apart after %d rows", rows)
		}
		if !okA {
			break
		}
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("interleaved merges diverged after %d rows", rows)
		}
		rows += len(ba)
	}
	if rows != 1500 {
		t.Fatalf("interleaved merges served %d rows, want 1500", rows)
	}
}
