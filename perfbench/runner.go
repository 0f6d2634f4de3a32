package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fsql"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/pkg/fuzzydb"
)

// workload is one benchmark workload.
type workload struct {
	name, why string
	rows      map[string]int
	// load creates the database in dir, only through SQL statements, and
	// returns the bytes of inserted row text.
	load func(seed int64, dir string) (int64, error)
	// oracle checks the workload's queries against the naive evaluation on
	// a reduced instance from the same generator and seed, and returns
	// notes on the known defects it also checks.
	oracle func(seed int64, dir string) ([]string, error)
	// drive runs the workload for r.seconds through the public API; traced,
	// it first runs the probes and half the time decomposed into layer
	// calls.
	drive func(r *runner, traced bool) error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// runner is the measuring child's state.
type runner struct {
	dir       string
	seed      int64
	seconds   float64
	userBytes int64 // inserted row text: setup plus run

	samples   map[string][]float64 // milliseconds per slot
	attempted int64
	failed    int64
	errs      []string

	out metrics
	tr  *tracer
	cfs *countFS
	lay layerStats
}

func runChild(w *workload, dir string, seed int64, seconds float64, traced bool, userBytes int64) int {
	r := &runner{dir: dir, seed: seed, seconds: seconds, userBytes: userBytes,
		samples: map[string][]float64{}, out: metrics{}}
	if traced {
		r.tr, r.cfs = newTracer(), newCountFS()
	}
	steal0, total0 := hostJiffies()
	if err := w.drive(r, traced); err != nil {
		r.fail("%v", err)
	}
	steal1, total1 := hostJiffies()
	r.out.set("host_steal_share", ratio(steal1-steal0, total1-total0), "ratio")
	res := childResult{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Errors: r.errs, Metrics: r.out}
	if traced {
		r.layerMetrics()
		path, err := filepath.Abs(filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed)))
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		if err == nil {
			err = r.tr.write(path)
		}
		if err != nil {
			r.fail("write spans: %v", err)
			res.Correct, res.Failed, res.Errors = false, r.failed, r.errs
		}
		res.TraceFile = path
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// fail counts a failed operation and keeps the first few reasons.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// attempt counts one attempted operation.
func (r *runner) attempt() { r.attempted++ }

// record adds a latency sample to slot.
func (r *runner) record(slot string, d time.Duration) {
	r.samples[slot] = append(r.samples[slot], ms(d.Nanoseconds()))
}

// loop runs iter at least once and until seconds have passed (finishing
// the iteration in flight), and returns the elapsed time.
func (r *runner) loop(seconds float64, iter func()) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		iter()
	}
	return time.Since(start)
}

// query runs sql through q, times it into slot and checks the answer's
// digest against want (an empty want adopts the answer as reference).
func (r *runner) query(slot, sql string, want *string, q func(string) (*fuzzydb.Result, error)) {
	r.attempt()
	start := time.Now()
	res, err := q(sql)
	d := time.Since(start)
	if err != nil {
		r.fail("%s: %v", slot, err)
		return
	}
	r.record(slot, d)
	r.checkDigest(slot, digestResult(res), want)
}

func (r *runner) checkDigest(slot, got string, want *string) {
	if *want == "" {
		*want = got
		return
	}
	if got != *want {
		r.fail("%s: answer %s, reference %s", slot, got, *want)
	}
}

// exec runs a statement script through e and times it into slot.
func (r *runner) exec(slot, sql string, e func(string) error) {
	r.attempt()
	start := time.Now()
	err := e(sql)
	d := time.Since(start)
	if err != nil {
		r.fail("%s: %v", slot, err)
		return
	}
	r.record(slot, d)
}

// open opens the database through the public API, timed into open_ms.
func (r *runner) open() (*fuzzydb.DB, error) {
	r.attempt()
	start := time.Now()
	db, err := fuzzydb.Open(r.dir)
	if err != nil {
		r.fail("open: %v", err)
		return nil, err
	}
	r.record("open_ms", time.Since(start))
	return db, nil
}

// recordDisk sets disk_bytes_per_user_byte from the database directory as
// it is now.
func (r *runner) recordDisk() error {
	size, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	r.out.set("disk_bytes_per_user_byte", float64(size)/float64(r.userBytes), "ratio")
	return nil
}

// finish computes the end-to-end metrics shared by every workload.
func (r *runner) finish(elapsed time.Duration, ops int) {
	for _, slot := range []string{"open_ms", "query_ms", "warm_query_ms", "txn_ms"} {
		r.out.setLatency(slot, r.samples[slot], "ms")
	}
	r.out.set("ops_per_s", float64(ops)/elapsed.Seconds(), "1/s")
	r.out.set("peak_rss_mb", peakRSSMB(), "MB")
}

// countOps is the number of timed operations recorded in the given slots.
func (r *runner) countOps(slots ...string) int {
	n := 0
	for _, s := range slots {
		n += len(r.samples[s])
	}
	return n
}

// ---- traced (decomposed) execution through the layers' exported API ----

// layerStats collects the decomposed statements' measurements.
type layerStats struct {
	opens      []float64  // storage.open (ms)
	parse      []float64  // fsql.parse of query-slot statements (µs)
	coldPlan   []float64  // first plan after an open (ms)
	warmPlan   []float64  // later plans (µs)
	coldEval   []float64  // query-slot eval (ms)
	warmEval   []float64  // evals with every sorted input cached (ms)
	sortPhase  []float64  // engine sort wall inside query-slot evals (ms)
	queryRoots []float64  // query-slot statement wall, traced (ms)
	first      *workCount // query-slot work of the first traced iteration
	sorted     workCount  // sorted-input traffic of every traced statement
	commits    []float64  // storage.commit (ms)
	firstTxn   *txnCount  // the first traced transaction's file-system work
}

// txnCount is what one transaction asked of the file system, against the
// row text it inserted.
type txnCount struct{ syncs, bytes, user int64 }

// workCount is the work one or more statements did, from counter deltas.
type workCount struct {
	wall                                int64 // traced statement wall, ns
	stmts                               int64
	reads, writes, hits, evictions      int64
	comparisons, degreeEvals, inputRows int64
	kernelTuples, morsels               int64
	cacheHits, cacheMisses, indexHits   int64
}

func (a *workCount) add(b workCount) {
	a.wall += b.wall
	a.stmts += b.stmts
	a.reads += b.reads
	a.writes += b.writes
	a.hits += b.hits
	a.evictions += b.evictions
	a.comparisons += b.comparisons
	a.degreeEvals += b.degreeEvals
	a.inputRows += b.inputRows
	a.kernelTuples += b.kernelTuples
	a.morsels += b.morsels
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.indexHits += b.indexHits
}

// counterState is a reading of the storage and executor counters.
type counterState struct {
	reads, writes, hits, evictions int64
	comparisons, degreeEvals       int64
	kernelTuples, morsels          int64
	cacheHits, cacheMisses, index  int64
	sortWall                       time.Duration
}

func readCounters(sess *core.Session) counterState {
	var c counterState
	c.reads, c.writes, c.hits, c.evictions = sess.Catalog().Manager().Stats().Snapshot()
	k := &sess.Env.Counters
	c.comparisons, c.degreeEvals = k.Comparisons.Load(), k.DegreeEvals.Load()
	c.kernelTuples, c.morsels = k.KernelTuples.Load(), k.Morsels.Load()
	c.cacheHits, c.cacheMisses, c.index = k.SortCacheHits.Load(), k.SortCacheMisses.Load(), k.IndexHits.Load()
	c.sortWall = sess.Env.Phases.SortWall
	return c
}

func (b counterState) since(a counterState) workCount {
	return workCount{
		stmts: 1,
		reads: b.reads - a.reads, writes: b.writes - a.writes, hits: b.hits - a.hits, evictions: b.evictions - a.evictions,
		comparisons: b.comparisons - a.comparisons, degreeEvals: b.degreeEvals - a.degreeEvals,
		kernelTuples: b.kernelTuples - a.kernelTuples, morsels: b.morsels - a.morsels,
		cacheHits: b.cacheHits - a.cacheHits, cacheMisses: b.cacheMisses - a.cacheMisses, indexHits: b.index - a.index,
	}
}

// coreSession opens the database at the storage layer with the counting
// file system, with the options fuzzydb.Open uses by default.
func (r *runner) coreSession(fs storage.FS) (*tracedSession, error) {
	r.attempt()
	root := r.tr.root("stmt.open")
	sp := r.tr.child(root, "storage.open")
	sess, err := core.OpenSessionOptions(r.dir, core.SessionOptions{BufferPages: 256, FS: fs})
	d := r.tr.close(sp)
	r.tr.close(root)
	if err != nil {
		r.fail("open: %v", err)
		return nil, err
	}
	r.lay.opens = append(r.lay.opens, ms(d))
	return &tracedSession{Session: sess}, nil
}

// tracedSession is a core session plus whether it has planned yet (the
// first plan after an open computes the relations' statistics).
type tracedSession struct {
	*core.Session
	planned bool
}

// tracedQuery runs one SELECT decomposed into parse, plan and evaluation
// calls, checks its answer, and returns its work.
func (r *runner) tracedQuery(ts *tracedSession, slot, sql string, want *string) (workCount, bool) {
	r.attempt()
	root := r.tr.root(map[string]string{"query_ms": "stmt.query", "warm_query_ms": "stmt.warm_query"}[slot])
	sp := r.tr.child(root, "fsql.parse")
	q, err := fsql.ParseQuery(sql)
	parse := r.tr.close(sp)
	var p *plan.Plan
	var planNs int64
	if err == nil {
		sp = r.tr.child(root, "plan.plan")
		p, err = ts.Env.PlanQuery(q)
		planNs = r.tr.close(sp)
	}
	if err != nil {
		r.tr.close(root)
		r.fail("%s: %v", slot, err)
		return workCount{}, false
	}
	before := readCounters(ts.Session)
	sp = r.tr.child(root, "core.eval")
	rel, err := ts.EvalPlan(context.Background(), p)
	eval := r.tr.close(sp)
	after := readCounters(ts.Session)
	total := r.tr.close(root)
	if err != nil {
		r.fail("%s: eval: %v", slot, err)
		return workCount{}, false
	}
	// The first plan after an open is the cold one: it rescans the
	// relations for their statistics.
	if !ts.planned {
		ts.planned = true
		r.lay.coldPlan = append(r.lay.coldPlan, ms(planNs))
	} else {
		r.lay.warmPlan = append(r.lay.warmPlan, float64(planNs)/1e3)
	}
	w := after.since(before)
	w.wall = total
	for _, in := range joinInputs {
		if h, err := ts.Catalog().Relation(in[0]); err == nil {
			w.inputRows += h.NumTuples()
		}
	}
	if slot == "query_ms" {
		r.lay.parse = append(r.lay.parse, float64(parse)/1e3)
		r.lay.coldEval = append(r.lay.coldEval, ms(eval))
		r.lay.sortPhase = append(r.lay.sortPhase, ms(int64(after.sortWall-before.sortWall)))
	}
	// A warm evaluation found every sorted input in the sort cache: it
	// neither sorted nor loaded an index.
	if w.cacheHits > 0 && w.cacheMisses == 0 && w.indexHits == 0 {
		r.lay.warmEval = append(r.lay.warmEval, ms(eval))
	}
	r.lay.sorted.add(w)
	r.checkDigest(slot+" (traced)", digestRelation(rel), want)
	return w, true
}

// tracedTxn runs BEGIN, the statements and COMMIT, one span each, and
// counts the fsyncs and bytes written while the transaction ran.
func (r *runner) tracedTxn(ts *tracedSession, stmts []string, userBytes int64) bool {
	r.attempt()
	root := r.tr.root("stmt.txn")
	syncs0, bytes0 := r.cfs.snapshot()
	run := func(layer, sql string) (int64, bool) {
		sp := r.tr.child(root, "fsql.parse")
		st, err := fsql.ParseStatement(sql)
		r.tr.close(sp)
		if err != nil {
			r.fail("txn: parse %q: %v", sql, err)
			return 0, false
		}
		sp = r.tr.child(root, layer)
		_, err = ts.Exec(st)
		d := r.tr.close(sp)
		if err != nil {
			r.fail("txn: %q: %v", sql, err)
			return 0, false
		}
		return d, true
	}
	ok := true
	if _, ok = run("core.exec", "BEGIN"); ok {
		for _, s := range stmts {
			if _, ok = run("core.exec", s); !ok {
				break
			}
		}
	}
	var commit int64
	if ok {
		commit, ok = run("storage.commit", "COMMIT")
	}
	r.tr.close(root)
	if !ok {
		return false
	}
	syncs1, bytes1 := r.cfs.snapshot()
	r.addUser(userBytes)
	r.lay.commits = append(r.lay.commits, ms(commit))
	if r.lay.firstTxn == nil {
		r.lay.firstTxn = &txnCount{syncs: syncs1 - syncs0, bytes: bytes1 - bytes0, user: userBytes}
	}
	return true
}

// closeSession closes a traced session.
func (r *runner) closeSession(ts *tracedSession) {
	if err := ts.Close(); err != nil {
		r.fail("close: %v", err)
	}
}

// inputHeaps returns the join-input heaps.
func inputHeaps(sess *core.Session) ([]*storage.HeapFile, error) {
	var hs []*storage.HeapFile
	for _, in := range joinInputs {
		h, err := sess.Catalog().Relation(in[0])
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// drain reads every tuple of h.
func drain(h *storage.HeapFile) error {
	sc := h.Scan()
	defer sc.Close()
	for {
		if _, ok := sc.Next(); !ok {
			return sc.Err()
		}
	}
}
