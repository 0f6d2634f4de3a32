// Command perfbench is the end-to-end and per-layer benchmark of fuzzydb.
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// It generates a workload's relations from the seed, loads them through
// the public API as CREATE TABLE / CREATE INDEX / INSERT statements, checks
// the workload's queries against the naive nested evaluation on a reduced
// instance, and then drives the workload closed-loop for the given number
// of seconds in a child process, checking every answer. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it times the calls into
// each layer's exported functions from outside, counts their work, writes
// the spans as JSON, and reports the per-layer metrics. The last line of
// standard output is the result object; the lines before it are the full
// report with the run record. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// endToEnd and perLayer are the metrics the result line carries, in the
// order BENCHMARK.json lists them. The report before it also carries
// open_ms and warm_query_ms, which only paper-cold has, and the tails and
// txn_ms, whose run-to-run spread on a shared 2-vCPU host exceeded the
// largest allowed bound (see README.md).
var endToEnd = []string{
	"setup_s", "query_ms.p50", "ops_per_s", "peak_rss_mb", "disk_bytes_per_user_byte",
}

var perLayer = []string{
	"fsql.parse_us", "plan.plan_us", "plan.cold_plan_ms", "plan.cold_plan_share_of_query",
	"storage.open_ms", "storage.stats_ms", "storage.scan_ms",
	"storage.page_reads", "storage.page_writes", "storage.evictions", "storage.pool_hit_ratio",
	"storage.commit_ms", "storage.fsyncs_per_commit", "storage.write_bytes_per_user_byte",
	"extsort.sort_ms", "extsort.sort_share_of_query", "extsort.runs", "extsort.spill_bytes", "extsort.comparisons",
	"catalog.index_build_ms", "catalog.index_hit_ratio",
	"core.cold_eval_ms", "core.warm_eval_ms", "core.sort_cache_hit_ratio", "core.sort_phase_ms",
	"exec.comparisons", "exec.degree_evals_per_row", "kernel.tuples", "kernel.morsels",
	"server.roundtrip_overhead_us",
	"fsql.self_share", "plan.self_share", "core.self_share", "storage.self_share",
	"trace.unattributed_share", "trace.overhead_pct",
}

// runRecord describes the run: enough to compare a result across machines.
type runRecord struct {
	Workload        string         `json:"workload"`
	Why             string         `json:"why"`
	Seed            int64          `json:"seed"`
	Seconds         float64        `json:"seconds"`
	Trace           bool           `json:"trace"`
	NProc           int            `json:"nproc"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	GoVersion       string         `json:"go_version"`
	GitCommit       string         `json:"git_commit"`
	SourceDigest    string         `json:"source_digest"`
	Rows            map[string]int `json:"rows"`
	BufferPoolPages int            `json:"buffer_pool_pages"`
	Clients         int            `json:"clients"`
	LoopModel       string         `json:"loop_model"`
	SetupRuns       []float64      `json:"setup_runs_s"`
	TraceFile       string         `json:"trace_file,omitempty"`
}

// childResult is what the measuring child process reports.
type childResult struct {
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   metrics  `json:"metrics"`
	TraceFile string   `json:"trace_file,omitempty"`
}

type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]lineVal `json:"metrics"`
}

type lineVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-cold or indexed-ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1: per-layer traced run, 0: end-to-end run")
	child := flag.String("child", "", "measure the database in this directory (used by the benchmark itself)")
	userBytes := flag.Int64("user-bytes", 0, "inserted row text of the setup (used with -child)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(runChild(w, *child, *seed, *seconds, *trace == 1, *userBytes))
	}
	os.Exit(orchestrate(w, *seed, *seconds, *trace == 1))
}

// buildDir, relative to the checkout root the benchmark runs from, holds
// everything a run writes; run.sh builds into it too.
const buildDir = ".bench_build"

// setupLoads is how often the set-up is repeated; setup_s is the median.
const setupLoads = 5

func orchestrate(w *workload, seed int64, seconds float64, traced bool) int {
	work, err := filepath.Abs(filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	var errs []string
	correct := true
	notes, err := w.oracle(seed, filepath.Join(work, "oracle"))
	if err != nil {
		correct = false
		errs = append(errs, "oracle: "+err.Error())
	}
	errs = append(errs, notes...)

	// Set up repeatedly for a steady setup_s; the first database is kept.
	var setupRuns []float64
	var userBytes int64
	for k := range setupLoads {
		dir := filepath.Join(work, "db"+strconv.Itoa(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		start := time.Now()
		ub, err := w.load(seed, dir)
		d := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setupRuns = append(setupRuns, d.Seconds())
		userBytes = ub
		if k > 0 {
			os.RemoveAll(dir)
		}
	}

	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", mode,
		"-child", filepath.Join(work, "db0"), "-user-bytes", strconv.FormatInt(userBytes, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: measuring process: %v\n", err)
		return 1
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: measuring process output: %v\n", err)
		return 1
	}
	correct = correct && res.Correct
	errs = append(errs, res.Errors...)

	all := res.Metrics
	all["setup_s"] = metric{Value: medianOf(setupRuns), Unit: "s", Samples: len(setupRuns)}
	all.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	names := endToEnd
	if traced {
		names = perLayer
	}
	line := resultLine{Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineVal{}}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			line.Correct = false
			errs = append(errs, "metric not measured: "+n)
			continue
		}
		line.Metrics[n] = lineVal{Value: m.Value, Unit: m.Unit}
	}

	rec := runRecord{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: envOr("PERFBENCH_GIT_COMMIT", "unknown"), SourceDigest: envOr("PERFBENCH_SOURCE_DIGEST", "unknown"),
		Rows: w.rows, BufferPoolPages: 256, Clients: 1,
		LoopModel: "closed loop: each client sends its next statement after the previous reply",
		SetupRuns: setupRuns, TraceFile: res.TraceFile,
	}
	report, err := json.MarshalIndent(struct {
		Record  runRecord `json:"record"`
		Metrics metrics   `json:"metrics"`
		Errors  []string  `json:"errors,omitempty"`
	}{rec, all, errs}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	final, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", report, final)
	return 0
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
