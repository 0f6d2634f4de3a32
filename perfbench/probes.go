package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/exec"
	"repro/internal/extsort"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/pkg/client"
	"repro/pkg/fuzzydb"
)

// Probes time one layer's exported call in isolation, on the workload's
// own database. The storage and sort probes run before the traced loop,
// on the database as set up, so their counts repeat exactly; the
// index-build, round-trip and commit probes run after the measured loop. The
// storage and sort probes repeat a few times and report the median time;
// their counts come from the first repetition and are exact.

const probeReps = 3

// probeStorage times HeapFile.Scan drains and HeapFile.Stats of the join
// inputs on freshly opened heaps (the statistics are cached after their
// first computation, so each repetition needs its own open).
func (r *runner) probeStorage() error {
	var scans, stats []float64
	for range probeReps {
		ts, err := r.coreSession(storage.OsFS{})
		if err != nil {
			return err
		}
		hs, err := inputHeaps(ts.Session)
		if err != nil {
			ts.Close()
			return err
		}
		var scan, stat int64
		for _, h := range hs {
			root := r.tr.root("probe.scan_stats")
			sp := r.tr.child(root, "storage.scan")
			err := drain(h)
			scan += r.tr.close(sp)
			if err == nil {
				sp = r.tr.child(root, "storage.stats")
				_, err = h.Stats()
				stat += r.tr.close(sp)
			}
			r.tr.close(root)
			if err != nil {
				ts.Close()
				return fmt.Errorf("storage probe: %w", err)
			}
		}
		scans, stats = append(scans, ms(scan)), append(stats, ms(stat))
		if err := ts.Close(); err != nil {
			return err
		}
	}
	r.out.set("storage.scan_ms", medianOf(scans), "ms")
	r.out.set("storage.stats_ms", medianOf(stats), "ms")
	return nil
}

// probeSort sorts each join input on its merge attribute with the engine's
// external sorter (the 256-page sort memory and worker count the engine
// uses by default).
func (r *runner) probeSort() error {
	ts, err := r.coreSession(storage.OsFS{})
	if err != nil {
		return err
	}
	defer ts.Close()
	hs, err := inputHeaps(ts.Session)
	if err != nil {
		return err
	}
	var times []float64
	var first extsort.Stats
	for rep := range probeReps {
		var wall int64
		var sum extsort.Stats
		for i, h := range hs {
			less, err := extsort.ByAttr(h.Schema, joinInputs[i][1])
			if err != nil {
				return err
			}
			root := r.tr.root("probe.sort")
			sp := r.tr.child(root, "extsort.sort")
			out, st, err := extsort.NewSorter(ts.Catalog().Manager(), 256).
				WithParallelism(exec.DefaultParallelism()).Sort(h, less)
			wall += r.tr.close(sp)
			r.tr.close(root)
			if err != nil {
				return fmt.Errorf("sort probe: %w", err)
			}
			if err := out.Drop(); err != nil {
				return err
			}
			sum.Runs += st.Runs
			sum.SpillBytes += st.SpillBytes
			sum.Comparisons += st.Comparisons
		}
		if rep == 0 {
			first = sum
		}
		times = append(times, ms(wall))
	}
	r.out.set("extsort.sort_ms", medianOf(times), "ms")
	r.out.setExact("extsort.runs", float64(first.Runs), "count")
	r.out.setExact("extsort.spill_bytes", float64(first.SpillBytes), "bytes")
	r.out.setExact("extsort.comparisons", float64(first.Comparisons), "count")
	return nil
}

// probeIndexBuild times CREATE INDEX on the merge and correlation
// attributes of R and S. Indexes the workload keeps are dropped first and
// rebuilt; others are dropped again afterwards.
func (r *runner) probeIndexBuild(keep bool) error {
	db, err := fuzzydb.Open(r.dir)
	if err != nil {
		return err
	}
	defer db.Close()
	name := func(a [2]string) string { return "probe_" + a[0] + "_" + a[1] }
	if keep {
		for _, a := range rsIndexes {
			if err := db.Exec("DROP INDEX " + indexName(a)); err != nil {
				return err
			}
		}
		name = indexName
	}
	root := r.tr.root("probe.index_build")
	var total int64
	for _, a := range rsIndexes {
		sp := r.tr.child(root, "catalog.create_index")
		err := db.Exec(fmt.Sprintf("CREATE INDEX %s ON %s (%s)", name(a), a[0], a[1]))
		total += r.tr.close(sp)
		if err != nil {
			r.tr.close(root)
			return err
		}
	}
	r.tr.close(root)
	r.out.set("catalog.index_build_ms", ms(total), "ms")
	if !keep {
		for _, a := range rsIndexes {
			if err := db.Exec("DROP INDEX " + name(a)); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCommit commits a few write transactions of ingestRows INSERTs into
// S, for a workload whose loop writes nothing: it gives that workload's
// commit, fsync and write-byte metrics. It runs last, after the answers
// have been checked.
func (r *runner) probeCommit(w *writer) error {
	ts, err := r.coreSession(r.cfs)
	if err != nil {
		return err
	}
	defer r.closeSession(ts)
	for range probeReps {
		stmts, ub := w.txn()
		if !r.tracedTxn(ts, stmts, ub) {
			return fmt.Errorf("commit probe failed")
		}
	}
	return nil
}

// indexName is the name a workload gives its order index on rel.attr.
func indexName(a [2]string) string { return "ix_" + a[0] + "_" + a[1] }

// serve starts an in-process server for db on a loopback port. stop shuts
// it down (checkpointing and closing db) and waits for Serve to return.
func serve(db *fuzzydb.DB) (addr string, stop func() error, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := server.New(db, server.Config{Logf: func(string, ...any) {}})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; serr != server.ErrServerClosed && err == nil {
			err = serr
		}
		return err
	}
	return lis.Addr().String(), stop, nil
}

// roundTripBudget is how long the round-trip probe alternates.
const roundTripBudget = 2 * time.Second

// probeRoundTrip measures what serving adds to a statement. It serves the
// closed database on loopback and runs the warm J query through a client
// and then through the embedded API, pair after pair.
func (r *runner) probeRoundTrip(want *string) (err error) {
	db, err := fuzzydb.Open(r.dir)
	if err != nil {
		return err
	}
	addr, stop, err := serve(db)
	if err != nil {
		db.Close()
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	conn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	sql := typeJ
	ctx := context.Background()
	viaClient := func() (float64, error) {
		start := time.Now()
		rows, err := conn.Query(ctx, sql)
		if err != nil {
			return 0, err
		}
		got, degrees, err := rows.All()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		r.checkDigest("roundtrip probe (client)", digestRows(got, degrees), want)
		return ms(d.Nanoseconds()), nil
	}
	embedded := func() (float64, error) {
		start := time.Now()
		res, err := db.Query(sql)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		r.checkDigest("roundtrip probe (embedded)", digestResult(res), want)
		return ms(d.Nanoseconds()), nil
	}
	// Each pair runs back to back, the order alternating, so the median of
	// the pairs' differences cancels most of the host's drift and of the
	// garbage one call leaves the next.
	var diffs []float64
	start := time.Now()
	for i := 0; i < 4 || (time.Since(start) < roundTripBudget && i < 500); i++ {
		r.attempt()
		r.attempt()
		var c, e float64
		var err error
		if i%2 == 0 {
			if c, err = viaClient(); err == nil {
				e, err = embedded()
			}
		} else if e, err = embedded(); err == nil {
			c, err = viaClient()
		}
		if err != nil {
			return err
		}
		diffs = append(diffs, c-e)
	}
	r.out.set("server.roundtrip_overhead_us", medianOf(diffs)*1e3, "us")
	return nil
}

// layerMetrics turns the decomposed statements' measurements into the
// per-layer metrics.
func (r *runner) layerMetrics() {
	l := &r.lay
	o := r.out
	med := func(s []float64) float64 {
		if len(s) == 0 {
			return 0
		}
		return medianOf(s)
	}
	o.set("storage.open_ms", med(l.opens), "ms")
	o.set("fsql.parse_us", med(l.parse), "us")
	o.set("plan.cold_plan_ms", med(l.coldPlan), "ms")
	o.set("plan.plan_us", med(l.warmPlan), "us")
	o.set("core.cold_eval_ms", med(l.coldEval), "ms")
	o.set("core.warm_eval_ms", med(l.warmEval), "ms")
	o.set("core.sort_phase_ms", med(l.sortPhase), "ms")
	o.set("storage.commit_ms", med(l.commits), "ms")
	if t := l.firstTxn; t != nil {
		o.setExact("storage.fsyncs_per_commit", float64(t.syncs), "count")
		o.setExact("storage.write_bytes_per_user_byte", ratio(t.bytes, t.user), "ratio")
	}
	if f := l.first; f != nil && f.stmts > 0 {
		n := float64(f.stmts)
		// Page reads and evictions are not exact: the two workers of a
		// parallel sort or merge-join share the buffer pool, and their
		// interleaving moves a few evictions (a few pages in 4 500 on
		// paper-cold; a serial evaluation repeats exactly).
		o.set("storage.page_reads", float64(f.reads)/n, "count")
		o.setExact("storage.page_writes", float64(f.writes)/n, "count")
		o.set("storage.evictions", float64(f.evictions)/n, "count")
		o.set("storage.pool_hit_ratio", ratio(f.hits, f.hits+f.reads), "ratio")
		o.setExact("exec.comparisons", float64(f.comparisons)/n, "count")
		o.setExact("exec.degree_evals_per_row", ratio(f.degreeEvals, f.inputRows), "ratio")
		o.setExact("kernel.tuples", float64(f.kernelTuples)/n, "count")
		o.setExact("kernel.morsels", float64(f.morsels)/n, "count")
	}
	s := l.sorted
	inputs := s.cacheHits + s.cacheMisses + s.indexHits
	o.set("core.sort_cache_hit_ratio", ratio(s.cacheHits, inputs), "ratio")
	o.set("catalog.index_hit_ratio", ratio(s.indexHits, inputs), "ratio")

	// Shares of the untraced query_ms median, and the tracing overhead.
	if q, ok := o["query_ms.p50"]; ok && q.Value > 0 {
		if v, ok := o["extsort.sort_ms"]; ok {
			o.set("extsort.sort_share_of_query", v.Value/q.Value, "ratio")
		}
		o.set("plan.cold_plan_share_of_query", med(l.coldPlan)/q.Value, "ratio")
		o.set("trace.overhead_pct", 100*(med(l.queryRoots)-q.Value)/q.Value, "%")
	}

	self, unattributed, total := r.tr.breakdown(map[string]bool{
		"stmt.query": true, "stmt.warm_query": true, "stmt.txn": true,
	})
	for _, layer := range []string{"fsql", "plan", "core", "storage"} {
		o.set(layer+".self_share", ratio(self[layer], total), "ratio")
	}
	o.set("trace.unattributed_share", ratio(unattributed, total), "ratio")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
