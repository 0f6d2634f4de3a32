package core

import (
	"time"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/frel"
	"repro/internal/storage"
)

// The sort-order cache. Every merge-join (and group-aggregate join) input
// must be sorted by the Definition 3.1 interval order, and the paper's
// workloads sort the same base relations on the same attributes query
// after query. The environment therefore caches, per (base relation,
// attribute, order), either the sorted tuples with the flat
// support-interval key column the merge-join reads (in-memory bases and
// index-served heaps) or the run set of an external sort, whose merge a
// hit re-streams, and reuses it as long as the base has not been mutated.
//
// Keying and invalidation contract:
//
//   - A cache entry is keyed by the identity (pointer) of the base
//     relation — the registered *frel.Relation or the catalog's
//     *storage.HeapFile — plus the resolved attribute index and the
//     total-order flag. Alias bindings resolve to the same base, so
//     FROM R and FROM R X share entries.
//   - Each entry records the base's version counter at build time. Every
//     mutating operation (Append, SortBy, DedupMax, Threshold on
//     relations; Append on heap files) bumps the counter, so a lookup
//     whose stored version disagrees with the live one is a miss and the
//     entry is rebuilt. Catalog reloads create a new heap-file pointer,
//     which simply never matches again.
//   - Only plain scans are cacheable: the source must unwrap to the base
//     itself (no filters or joins in between), since a filtered stream's
//     sorted order is not the base relation's.
//
// Entry counts are bounded by wholesale eviction (sortCacheMaxEntries).
// The run files of displaced entries, like those of uncached sorts, are
// dropped when the statement ends, and ReleaseSortCache drops the rest.

const (
	// sortCacheMaxEntries bounds the entry map; exceeding it wipes the
	// map (simple, and workloads touch few distinct orders).
	sortCacheMaxEntries = 64
	// baseMapMaxEntries bounds the bookkeeping maps that track cacheable
	// base pointers and memoized alias wrappers.
	baseMapMaxEntries = 256
)

// sortKey identifies one cached sort order: the base relation (exactly one
// of mem/heap set), the resolved attribute index, and whether the
// tie-broken total order was requested.
type sortKey struct {
	mem   *frel.Relation
	heap  *storage.HeapFile
	attr  int
	total bool
}

// sortEntry is one cached sort order: the sorted tuples with their
// support-key column (in-memory bases and index-served heaps), or the run
// set of an external sort, whose merge every hit re-streams.
type sortEntry struct {
	version uint64
	tuples  []frel.Tuple
	keys    []frel.SupportKey
	runs    *extsort.RunSet
}

// aliasEntry memoizes the alias wrapper built around a registered base
// relation, so repeated FROM R X queries resolve to one stable pointer
// (the sort cache keys on the base, but the wrapper must also stay
// current with the base's tuples).
type aliasEntry struct {
	base    *frel.Relation
	wrapper *frel.Relation
	version uint64
}

// noteMemBase records that rel (possibly an alias wrapper) reads the
// registered base relation base.
func (e *Env) noteMemBase(rel, base *frel.Relation) {
	if e.memBase == nil || len(e.memBase) >= baseMapMaxEntries {
		e.memBase = make(map[*frel.Relation]*frel.Relation)
	}
	e.memBase[rel] = base
}

// aliasRel returns the memoized alias wrapper for base under aliasKey,
// refreshing its tuple slice when the base has been mutated since the
// wrapper was built.
func (e *Env) aliasRel(nameKey, aliasKey string, base *frel.Relation) *frel.Relation {
	k := nameKey + "\x00" + aliasKey
	if ent, ok := e.aliasMemo[k]; ok && ent.base == base {
		if ent.version != base.Version() {
			ent.wrapper.Tuples = base.Tuples
			ent.wrapper.Bump()
			ent.version = base.Version()
		}
		return ent.wrapper
	}
	if e.aliasMemo == nil || len(e.aliasMemo) >= baseMapMaxEntries {
		e.aliasMemo = make(map[string]*aliasEntry)
	}
	w := &frel.Relation{Schema: base.Schema.WithName(aliasKey), Tuples: base.Tuples}
	e.aliasMemo[k] = &aliasEntry{base: base, wrapper: w, version: base.Version()}
	return w
}

// cacheableBase resolves src to a cacheable base relation — a plain scan
// of a registered in-memory relation or of a catalog heap file, at most
// one of them non-nil — and the base's version as the evaluation sees it.
func (e *Env) cacheableBase(src exec.Source) (*frel.Relation, *storage.HeapFile, uint64) {
	s := exec.Unwrap(src)
	if r, ok := s.(*renameSource); ok {
		s = exec.Unwrap(r.Source)
	}
	switch s := s.(type) {
	case *exec.MemSource:
		if b := e.memBase[s.Rel]; b != nil {
			return b, nil, b.Version()
		}
	case *exec.HeapSource:
		return nil, s.Heap, e.heapVersion(s.Heap)
	}
	return nil, nil, 0
}

// storeSort caches ent under k. Run sets it displaces (a stale version, or
// a wholesale eviction) are retired, not dropped: a merge of the current
// statement may still be streaming them.
func (e *Env) storeSort(k sortKey, ent *sortEntry) {
	if e.sortCache == nil || len(e.sortCache) >= sortCacheMaxEntries {
		for _, old := range e.sortCache {
			e.retire(old.runs)
		}
		e.sortCache = make(map[sortKey]*sortEntry)
	} else if old, ok := e.sortCache[k]; ok {
		e.retire(old.runs)
	}
	e.sortCache[k] = ent
}

// retire schedules a run set for dropping when the statement ends.
func (e *Env) retire(runs *extsort.RunSet) {
	if runs != nil {
		e.stmtRuns = append(e.stmtRuns, runs)
	}
}

// dropStatementRuns drops the run sets retired or left uncached by the
// statement that just ended (best-effort cleanup).
func (e *Env) dropStatementRuns() {
	for _, rs := range e.stmtRuns {
		_ = rs.Drop()
	}
	e.stmtRuns = nil
}

// runSource streams the merge of a run set; every Open starts a fresh
// merge, and merges over one run set may be open at once. The merge's
// wall, page I/O and key comparisons are charged to the sort phase, the
// comparison counter and the sort node as batches are pulled.
type runSource struct {
	e      *Env
	runs   *extsort.RunSet
	schema *frel.Schema
	node   *exec.OpStats
}

func (s *runSource) Schema() *frel.Schema { return s.schema }

func (s *runSource) Open() (exec.BatchIterator, error) {
	return &runIterator{Merger: s.runs.Merge(), runSource: s}, nil
}

type runIterator struct {
	*extsort.Merger
	*runSource
	cmp int64 // comparisons already charged
}

func (it *runIterator) NextBatch() ([]frel.Tuple, bool) {
	stats := it.e.cat.Manager().Stats()
	start, ios := time.Now(), stats.IO()
	b, ok := it.Merger.NextBatch()
	it.e.Phases.SortWall += time.Since(start)
	it.e.Phases.SortIOs += stats.IO() - ios
	cmp := it.Comparisons() - it.cmp
	it.cmp += cmp
	it.e.Counters.Comparisons.Add(cmp)
	if it.node != nil {
		it.node.Comparisons.Add(cmp)
	}
	return b, ok
}
