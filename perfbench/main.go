// Command perfbench is the repository's benchmark: four workloads over the
// vxml search engine, each run in-process with closed-loop clients, every
// output checked against an oracle, printing end-to-end metrics or (with
// --trace 1) a per-layer breakdown. See README.md for the workloads and
// metrics.
//
//	perfbench --workload paper_direct --seed 1 --seconds 20 --trace 0
//	perfbench compare OLD.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also appends its full
// record (host, parameters, counters) to .bench_out/runs.jsonl, and a
// traced run writes its spans to .bench_out/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir holds run records and span files, relative to the working
// directory (the repository root).
const outDir = ".bench_out"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is a scratch directory for on-disk stores, removed at exit.
	dir string
}

// outcome is what a workload run measured and checked.
type outcome struct {
	params   map[string]any
	setupS   []float64 // one entry per repeated set-up
	searchMs []float64 // per-search latency at the caller
	writeMs  []float64 // per-write latency at the caller
	// attempted and failed count every operation of the timed window and
	// every oracle comparison; an op fails on an error, a non-2xx status
	// or an answer that differs from the verified one.
	attempted, failed int
	wall              time.Duration // timed window
	heapMB            float64
	layers            map[string]float64 // per-layer metrics (traced run)
	counters          map[string]int64   // deterministic counters
	check             *checker
	errs              []string
}

func newOutcome(workload string) *outcome {
	return &outcome{params: map[string]any{}, layers: map[string]float64{}, counters: map[string]int64{}, check: &checker{workload: workload}}
}

// opError records a failed operation, keeping the first few messages.
func (o *outcome) opError(format string, args ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	name string
	run  func(cfg *config) (*outcome, error)
}

var workloads = []workloadDef{
	{"paper_direct", runPaperDirect},
	{"http_planned_rw", runHTTPPlanned},
	{"disk_direct_rw", runDiskDirect},
	{"cluster_scatter", runClusterScatter},
}

// metricDef is a reported metric with its unit.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"search_qps", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// layerMetrics are printed by a traced run, for every workload; a layer a
// workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"error_rate", "ratio"},
	{"disk_bytes_per_user_byte", "ratio"},
	{"core.plan_ms", "ms"},
	{"diskstore.stored_indices_ms", "ms"},
	{"pdt.prepare_lists_ms", "ms"},
	{"pdt.generate_ms", "ms"},
	{"pdt.nodes_per_search", "count"},
	{"pathindex.probes_per_search", "count"},
	{"invindex.lookups_per_search", "count"},
	{"xqeval.eval_ms", "ms"},
	{"xqeval.view_results_per_search", "count"},
	{"scoring.rank_ms", "ms"},
	{"scoring.matched_per_search", "count"},
	{"scoring.materialize_ms", "ms"},
	{"scoring.snippet_ms", "ms"},
	{"xmltree.serialize_ms", "ms"},
	{"store.subtree_ms", "ms"},
	{"diskstore.subtree_ms", "ms"},
	{"store.subtree_fetches_per_search", "count"},
	{"store.bytes_fetched_per_search", "bytes"},
	{"diskstore.block_hit_ratio", "ratio"},
	{"diskstore.doc_hit_ratio", "ratio"},
	{"diskstore.index_hit_ratio", "ratio"},
	{"diskstore.block_misses_per_search", "count"},
	{"diskstore.data_bytes_per_write", "bytes"},
	{"diskstore.manifest_bytes_per_write", "bytes"},
	{"xmltree.parse_ms", "ms"},
	{"pathindex.build_ms", "ms"},
	{"invindex.build_ms", "ms"},
	{"vxml.replace_ms", "ms"},
	{"catalog.cache_hit_ratio", "ratio"},
	{"catalog.rewritten_ratio", "ratio"},
	{"catalog.materialized_ratio", "ratio"},
	{"catalog.direct_ratio", "ratio"},
	{"catalog.invalidations_per_1k_ops", "count"},
	{"catalog.promotions_per_1k_ops", "count"},
	{"catalog.demotions_per_1k_ops", "count"},
	{"catalog.evictions_per_1k_ops", "count"},
	{"http.client_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"server.handler_ms.direct", "ms"},
	{"server.handler_ms.cache_hit", "ms"},
	{"server.handler_ms.rewritten", "ms"},
	{"server.handler_ms.materialized", "ms"},
	{"server.response_bytes_per_search", "bytes"},
	{"cluster.search_ms", "ms"},
	{"cluster.node.rank_ms", "ms"},
	{"cluster.node.materialize_ms", "ms"},
	{"cluster.rpcs_per_search", "count"},
	{"cluster.node_evals_per_search", "count"},
	{"cluster.wire_bytes_per_search", "bytes"},
	{"cluster.merge_and_network_ms", "ms"},
	{"runtime.allocs_per_search", "count"},
	{"runtime.alloc_bytes_per_search", "bytes"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unaccounted_ratio", "ratio"},
	{"trace.ms_per_search", "ms"},
}

// unaccountedTolerance is the largest share of traced end-to-end time that
// the layer self times may leave uncovered before a traced run fails.
const unaccountedTolerance = 0.10

// tailQuantile is the reported tail percentile (search_p99_ms).
const tailQuantile = 0.99

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the full record of one run, appended to runs.jsonl; the
// compare mode reads these.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Host      map[string]any         `json:"host"`
	Params    map[string]any         `json:"params"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Counters  map[string]int64       `json:"counters"`
	Samples   map[string]int         `json:"samples"`
	// Latency summarizes the timed window's search latencies (ms), for
	// reading the shape of the tail; only the metrics are gated.
	Latency    map[string]float64 `json:"latency_ms,omitempty"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// lastLine is the JSON object printed as the final line of stdout.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "timed window length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &config{workload: def.name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}

	out, err := def.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	rec, line, err := finish(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	if err := appendRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta, _ := json.Marshal(map[string]any{"workload": rec.Workload, "seed": rec.Seed, "trace": rec.Trace,
		"host": rec.Host, "params": rec.Params, "samples": rec.Samples, "counters": rec.Counters, "latency_ms": rec.Latency})
	fmt.Println(string(meta))
	for _, m := range rec.Mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH", m)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: error:", e)
	}
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// finish turns an outcome into the run record and the printed line.
func finish(cfg *config, o *outcome) (*runRecord, *lastLine, error) {
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Host: hostInfo(), Params: o.params, Counters: o.counters,
		Metrics: map[string]metricValue{},
		Samples: map[string]int{"searches": len(o.searchMs), "writes": len(o.writeMs), "setups": len(o.setupS)},
		Errors:  o.errs,
	}
	rec.Params["seconds"] = cfg.seconds
	if len(o.searchMs) > 0 {
		rec.Latency = map[string]float64{}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
			rec.Latency[fmt.Sprintf("p%g", 100*q)] = percentile(o.searchMs, q)
		}
		rec.Latency["mean"] = mean(o.searchMs)
	}
	rec.Attempted = o.attempted + o.check.compared
	rec.Failed = o.failed + len(o.check.mismatches)
	rec.Mismatches = o.check.mismatches
	rec.Correct = rec.Failed == 0 && o.check.compared > 0
	if rec.Attempted > 0 {
		o.layers["error_rate"] = float64(rec.Failed) / float64(rec.Attempted)
	}
	if cfg.trace {
		if u := o.layers["trace.unaccounted_ratio"]; u > unaccountedTolerance {
			rec.Correct = false
			rec.Errors = append(rec.Errors, fmt.Sprintf("layer self times leave %.1f%% of traced time unaccounted (tolerance %.0f%%)", 100*u, 100*unaccountedTolerance))
		}
		for _, m := range layerMetrics {
			rec.Metrics[m.name] = metricValue{Value: o.layers[m.name], Unit: m.unit}
		}
	} else if rec.Correct {
		p99, err := tailPercentile(append([]float64(nil), o.searchMs...), tailQuantile)
		if err != nil {
			return nil, nil, fmt.Errorf("search_p99_ms: %w", err)
		}
		vals := map[string]float64{
			"search_p50_ms": median(o.searchMs),
			"search_p99_ms": p99,
			"search_qps":    float64(len(o.searchMs)) / o.wall.Seconds(),
			"setup_s":       median(o.setupS),
			"heap_mb":       o.heapMB,
		}
		for _, m := range e2eMetrics {
			if vals[m.name] <= 0 {
				return nil, nil, fmt.Errorf("metric %s measured %v", m.name, vals[m.name])
			}
			rec.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	}
	return rec, &lastLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}, nil
}

func appendRecord(rec *runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measureSetups builds the system repeatedly, records each build's wall
// time in o.setupS and keeps the last system; earlier ones are closed. It
// builds at least minSetups times and goes on until setupBudget has been
// spent building, up to maxSetups times, so that a cheap set-up is timed
// often enough for the median that setup_s reports to be steady.
func measureSetups[T any](o *outcome, build func() (T, error), closeFn func(T)) (T, error) {
	var sys T
	spent := 0.0
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget.Seconds()); i++ {
		if i > 0 {
			closeFn(sys)
			runtime.GC()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return sys, err
		}
		took := time.Since(start).Seconds()
		o.setupS = append(o.setupS, took)
		spent += took
		sys = s
	}
	return sys, nil
}

// How often each workload builds its system to measure setup_s.
const (
	minSetups   = 7
	maxSetups   = 40
	setupBudget = 2 * time.Second
)

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
