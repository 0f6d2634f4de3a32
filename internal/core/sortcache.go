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
// after query. The environment therefore caches, per (base heap file,
// attribute, order), either the run set of an external sort, whose merge
// a hit re-streams, or the index-served sorted tuples with the flat
// support-interval key column the merge-join reads, and reuses it as long
// as the heap has not been mutated.
//
// Keying and invalidation contract:
//
//   - A cache entry is keyed by the identity (pointer) of the catalog's
//     *storage.HeapFile plus the resolved attribute index and the
//     total-order flag. Alias bindings scan the same heap, so FROM R and
//     FROM R X share entries.
//   - Each entry records the heap's version counter at build time (the
//     snapshot's committed version under snapshot reads). Every append
//     and rollback bumps the counter, so a lookup whose stored version
//     disagrees with the visible one is a miss and the entry is rebuilt.
//     DELETE and catalog reloads create a new heap-file pointer, which
//     simply never matches again.
//   - Only plain scans are cacheable: the source must unwrap to the heap
//     scan itself (no filters or joins in between), since a filtered
//     stream's sorted order is not the base relation's.
//
// Entry counts are bounded by wholesale eviction (sortCacheMaxEntries).
// The run files of displaced entries, like those of uncached sorts, are
// dropped when the statement ends, and ReleaseSortCache drops the rest.

// sortCacheMaxEntries bounds the entry map; exceeding it wipes the map
// (simple, and workloads touch few distinct orders).
const sortCacheMaxEntries = 64

// sortKey identifies one cached sort order: the base heap file, the
// resolved attribute index, and whether the tie-broken total order was
// requested.
type sortKey struct {
	heap  *storage.HeapFile
	attr  int
	total bool
}

// sortEntry is one cached sort order: the run set of an external sort,
// whose merge every hit re-streams, or the sorted tuples with their
// support-key column of an index-served order.
type sortEntry struct {
	version uint64
	tuples  []frel.Tuple
	keys    []frel.SupportKey
	runs    *extsort.RunSet
}

// cacheableBase resolves src to the heap file it plainly scans, or nil,
// and the heap's version as the evaluation sees it.
func (e *Env) cacheableBase(src exec.Source) (*storage.HeapFile, uint64) {
	s := exec.Unwrap(src)
	if r, ok := s.(*renameSource); ok {
		s = exec.Unwrap(r.Source)
	}
	if hs, ok := s.(*exec.HeapSource); ok {
		return hs.Heap, e.heapVersion(hs.Heap)
	}
	return nil, 0
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
