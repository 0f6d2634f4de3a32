// Package core implements the paper's primary contribution: the unnesting
// of nested Fuzzy SQL queries (Sections 4-8) and, as the baseline every
// experiment compares against, the naive nested-loop evaluation of the
// nested execution semantics (Section 2.3).
//
// Two evaluators share one environment:
//
//   - Env.EvalNaive executes a query exactly by its nested semantics: the
//     inner block is re-evaluated for every tuple of the outer block.
//   - Env.EvalUnnested classifies the query (type N, J, JX, JA, JALL, or a
//     K-level chain), rewrites it to the equivalent flat form of the
//     corresponding theorem, and evaluates the flat form with the extended
//     merge-join (falling back to nested-loop joins where the merge order
//     does not apply, and to the naive evaluator for shapes outside the
//     paper's classes).
//
// The equivalence theorems 4.1-8.1 are validated by randomized tests that
// compare the two evaluators tuple-for-tuple and degree-for-degree.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// ErrUnknownTerm reports a linguistic term that resolves in neither the
// session's term scope nor the shared catalog. The public API maps it to
// a typed error code.
var ErrUnknownTerm = errors.New("unknown linguistic term")

// Env is the evaluation environment over a catalog: relation and term
// resolution plus the resource knobs (sort memory, nested-loop block size)
// and work counters.
type Env struct {
	cat *catalog.Catalog

	// scopeTerms, when non-nil, is the session-local linguistic-term
	// scope: a per-connection vocabulary layered over the shared catalog,
	// consulted first by term resolution (scope → database). Forked
	// sessions get one; the database's base session resolves directly
	// against the catalog.
	scopeTerms map[string]fuzzy.Trapezoid

	// SortMemPages is the memory budget, in pages, for external sorts
	// (default 256 pages = the paper's 2 MB).
	SortMemPages int
	// NLBlockBytes is the outer block budget of the nested-loop join
	// (default all but one page of SortMemPages, per Section 9).
	NLBlockBytes int

	// DisableJoinReorder turns off the dynamic-programming join ordering
	// and keeps the syntactic relation order (ablation switch).
	DisableJoinReorder bool

	// Parallelism is the worker count for the morsel-scheduled merge-join
	// and for sort run generation: 0 means exec.DefaultParallelism()
	// (GOMAXPROCS), 1 forces fully serial execution.
	Parallelism int

	// Sort-order cache state; see sortcache.go for the keying and
	// invalidation contract. The map is lazily initialized.
	sortCache map[sortKey]*sortEntry
	stmtRuns  []*extsort.RunSet // run sets to drop when the statement ends

	// ctx, when non-nil, is observed by the leaf scans of every evaluation
	// (set for the duration of a *Context evaluation call).
	ctx context.Context

	// snap, when non-nil, is the snapshot the current evaluation reads
	// under: heap scans are bounded to the snapshot's committed tuple
	// counts (see snapshot.go). Set for the duration of one statement (or
	// one transaction's statements); nil means live reads.
	snap *Snapshot

	// analyze, when non-nil, is the EXPLAIN ANALYZE collection the run
	// path attaches per-operator stats nodes to (set for the duration of
	// an *Analyze evaluation call).
	analyze *ExecStats

	// Counters accumulates operator work across evaluations.
	Counters exec.Counters
	// Phases attributes evaluation work to phases; the experiments use it
	// for the paper's Table 3 time breakdown.
	Phases PhaseStats
}

// PhaseStats attributes evaluation work to phases.
type PhaseStats struct {
	SortWall time.Duration // wall time spent sorting (run generation + merging)
	SortIOs  int64         // physical page I/Os performed by sorts
}

// ResetStats clears the accumulated counters and phase statistics.
func (e *Env) ResetStats() {
	e.Counters.Reset()
	e.Phases = PhaseStats{}
}

// NewEnv builds an environment over a catalog (with on-disk relations and
// its linguistic terms).
func NewEnv(cat *catalog.Catalog) *Env {
	e := &Env{cat: cat}
	e.SortMemPages = 256
	e.NLBlockBytes = (e.SortMemPages - 1) * storage.PageSize
	return e
}

func relKey(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

func termKey(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// withContext installs ctx as the evaluation context and returns the
// restore function for the caller to defer.
func (e *Env) withContext(ctx context.Context) func() {
	prev := e.ctx
	e.ctx = ctx
	return func() { e.ctx = prev }
}

// workers resolves the Parallelism knob to an effective worker count.
func (e *Env) workers() int {
	if e.Parallelism == 0 {
		return exec.DefaultParallelism()
	}
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}

// term resolves a linguistic term: the session-local scope first, then
// the shared catalog.
func (e *Env) term(name string) (fuzzy.Trapezoid, bool) {
	if t, ok := e.scopeTerms[termKey(name)]; ok {
		return t, true
	}
	return e.cat.Term(name)
}

// EnableTermScope gives the environment a session-local term scope;
// subsequent DefineScopedTerm calls land there and shadow same-named
// catalog terms for this environment only.
func (e *Env) EnableTermScope() {
	if e.scopeTerms == nil {
		e.scopeTerms = make(map[string]fuzzy.Trapezoid)
	}
}

// HasTermScope reports whether the environment carries a session-local
// term scope.
func (e *Env) HasTermScope() bool { return e.scopeTerms != nil }

// DefineScopedTerm binds a linguistic term in the session-local scope.
func (e *Env) DefineScopedTerm(name string, t fuzzy.Trapezoid) error {
	if e.scopeTerms == nil {
		return fmt.Errorf("core: environment has no term scope")
	}
	if !t.Valid() {
		return fmt.Errorf("core: term %q has invalid distribution %v", name, t)
	}
	e.scopeTerms[termKey(name)] = t
	return nil
}

// ScopedTerms returns the names of the terms defined in the session-local
// scope (unsorted; nil without a scope).
func (e *Env) ScopedTerms() []string {
	names := make([]string, 0, len(e.scopeTerms))
	for n := range e.scopeTerms {
		names = append(names, n)
	}
	return names
}

// ReleaseSortCache drops the environment's cached sort orders, deleting
// the run files held by the external side of the cache. Sessions call it
// on close so caches do not leave temporary files behind.
func (e *Env) ReleaseSortCache() {
	for _, ent := range e.sortCache {
		e.retire(ent.runs)
	}
	e.dropStatementRuns()
	e.sortCache = nil
}

// source resolves a FROM-clause relation reference to a scan of its heap
// file whose schema carries the binding name (FROM alias). Every binding
// of one relation scans the same heap, so later sorts of the scan share
// its sort-order cache entries.
func (e *Env) source(tr fsql.TableRef) (exec.Source, error) {
	name, alias := tr.Name, tr.Binding()
	h, err := e.cat.Relation(name)
	if err != nil {
		return nil, err
	}
	var src exec.Source
	if e.snap != nil && !e.snap.Live(h) {
		sn, ok := e.snap.Lookup(h)
		if !ok {
			// The name resolves to a heap created (or swapped in by a
			// DELETE rewrite) after the snapshot was taken: the
			// transaction cannot see a consistent state of it.
			return nil, fmt.Errorf("core: %w: relation %q changed after the transaction began", ErrTxnConflict, name)
		}
		src = exec.NewHeapSourceAt(h, sn.Tuples)
	} else {
		src = exec.NewHeapSource(h)
	}
	if alias != "" && relKey(alias) != h.Schema.Name {
		src = &renameSource{Source: src, schema: h.Schema.WithName(relKey(alias))}
	}
	return exec.WithContext(e.ctx, src), nil
}

// shiftSource adds a constant distribution to one numeric attribute of
// every tuple — the tolerance-folding transform of NEAR correlations.
type shiftSource struct {
	src   exec.Source
	idx   int
	shift fuzzy.Trapezoid
}

func newShiftSource(src exec.Source, attr string, shift fuzzy.Trapezoid) (exec.Source, error) {
	i, err := src.Schema().Resolve(attr)
	if err != nil {
		return nil, err
	}
	if src.Schema().Attrs[i].Kind != frel.KindNumber {
		return nil, fmt.Errorf("core: cannot shift non-numeric attribute %s", attr)
	}
	return &shiftSource{src: src, idx: i, shift: shift}, nil
}

func (s *shiftSource) Schema() *frel.Schema { return s.src.Schema() }

// Open implements exec.Source: the shifted values of each batch are
// written into one fresh arena (a single allocation per batch instead of
// one per tuple).
func (s *shiftSource) Open() (exec.BatchIterator, error) {
	in, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	return &shiftBatchIterator{in: in, idx: s.idx, shift: s.shift}, nil
}

type shiftBatchIterator struct {
	in    exec.BatchIterator
	idx   int
	shift fuzzy.Trapezoid
	out   []frel.Tuple
}

func (it *shiftBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	b, ok := it.in.NextBatch()
	if !ok {
		return nil, false
	}
	it.out = it.out[:0]
	arena := make([]frel.Value, 0, len(b)*len(b[0].Values))
	for _, t := range b {
		off := len(arena)
		arena = append(arena, t.Values...)
		vals := arena[off:len(arena):len(arena)]
		vals[it.idx] = frel.Num(fuzzy.Add(vals[it.idx].Num, it.shift))
		it.out = append(it.out, frel.Tuple{Values: vals, D: t.D})
	}
	return it.out, true
}

func (it *shiftBatchIterator) Err() error { return it.in.Err() }
func (it *shiftBatchIterator) Close()     { it.in.Close() }

// renameSource rebinds a source's schema name (FROM alias).
type renameSource struct {
	exec.Source
	schema *frel.Schema
}

func (r *renameSource) Schema() *frel.Schema { return r.schema }

// sortSource returns src stably sorted on attr (total: the CompareTotal
// order the group-aggregate join needs). A base relation's order comes
// from the sort-order cache (sortcache.go) or an order index
// (indexscan.go) when it can. Otherwise src's stream is sorted into runs
// and the streamed merge of the runs is served.
func (e *Env) sortSource(src exec.Source, attr string, total bool) (exec.Source, error) {
	byAttr := extsort.ByAttr
	if total {
		byAttr = extsort.ByAttrTotal
	}
	order, err := byAttr(src.Schema(), attr)
	if err != nil {
		return nil, err
	}
	attrIdx, _ := src.Schema().Resolve(attr)
	base, version := e.cacheableBase(src)
	key := sortKey{heap: base, attr: attrIdx, total: total}
	node := e.newNode("sort", attr)
	if ent, ok := e.sortCache[key]; ok && ent.version == version {
		e.Counters.SortCacheHits.Add(1)
		if node != nil {
			node.CacheHits.Store(1)
		}
		return e.attach(node, e.sortedSource(src, ent, node), src), nil
	}
	if base != nil {
		if out, ok, err := e.indexSorted(src, base, attr, attrIdx, total); err != nil || ok {
			return out, err
		}
	}
	start := time.Now()
	mgr := e.cat.Manager()
	ios := mgr.Stats().IO()
	it, err := src.Open()
	if err != nil {
		return nil, err
	}
	runs, st, err := extsort.NewSorter(mgr, e.SortMemPages).WithParallelism(e.workers()).SortRuns(it, src.Schema(), order)
	it.Close()
	if err != nil {
		return nil, err
	}
	ent := &sortEntry{version: version, runs: runs}
	e.Phases.SortIOs += mgr.Stats().IO() - ios
	elapsed := time.Since(start)
	e.Phases.SortWall += elapsed
	e.Counters.Comparisons.Add(st.Comparisons)
	if base != nil {
		e.storeSort(key, ent)
		e.Counters.SortCacheMisses.Add(1)
	} else {
		e.retire(runs) // an uncached run set lives for the statement
	}
	if node != nil {
		node.SortRuns.Store(int64(st.Runs))
		node.MergePasses.Store(int64(st.MergePasses))
		node.SpillBytes.Store(st.SpillBytes)
		node.Comparisons.Store(st.Comparisons)
		node.WallNanos.Store(elapsed.Nanoseconds())
		if base != nil {
			node.CacheMisses.Store(1)
		}
	}
	return e.attach(node, e.sortedSource(src, ent, node), src), nil
}

// sortedSource serves a sort result under src's (possibly aliased) schema:
// the run set's merge, or the index-served tuples with their key column.
func (e *Env) sortedSource(src exec.Source, ent *sortEntry, node *exec.OpStats) exec.Source {
	if ent.runs != nil {
		return exec.WithContext(e.ctx, &runSource{e: e, runs: ent.runs, schema: src.Schema(), node: node})
	}
	rel := &frel.Relation{Schema: src.Schema(), Tuples: ent.tuples}
	return exec.WithContext(e.ctx, exec.NewKeyedMemSource(rel, ent.keys))
}
