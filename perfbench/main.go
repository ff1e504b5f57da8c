// Command perfbench is the gdsx benchmark: one command that runs one of
// three workloads over the library pipeline or an in-process gdsxd,
// checks every output against a reference, and prints every metric by
// name and unit. The last line of standard output is the JSON result.
//
//	go build -o perfbench . && ./perfbench --workload batch --seed 1 --seconds 15 --trace 0
//
// perfbench/run.sh builds and runs it from the repository root. See
// README.md beside this file for the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one reported metric. moves says which end-to-end
// metric a per-layer metric should move, on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of gdsx sees; every workload reports
// all of them (see README.md for each workload's definition).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "transform_s", unit: "s"},
	{name: "run_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "tail_ms", unit: "ms"},
	{name: "rps", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics. A layer that does no work on
// a workload reports 0 there.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms", "transform_s (batch), p50_ms (serve-cold)"},
	{"sema.check_ms", "ms", "transform_s (batch), p50_ms (serve-cold)"},
	{"profile.ms", "ms", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"profile.memops", "count", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"profile.ns_per_memop", "ns", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"ddg.edges", "count", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"ddg.classify_ms", "ms", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"alias.analyze_ms", "ms", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"expand.ms", "ms", "transform_s (batch), p50_ms/rps (serve-cold)"},
	{"expand.structures", "count", "run_s (batch)"},
	{"expand.promoted", "count", "run_s (batch)"},
	{"expand.span_stores", "count", "run_s (batch)"},
	{"expand.span_stores_elided", "count", "run_s (batch)"},
	{"expand.src_growth", "ratio", "run_s (batch)"},
	{"interp.native_1t_ms", "ms", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.exp_1t_ms", "ms", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.exp_2t_ms", "ms", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.speedup_2t", "ratio", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.parallel_eff", "ratio", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.ops_ratio", "ratio", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.sync_ops", "count", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.wait_ops", "count", "run_s (batch), p50_ms (serve-warm)"},
	{"interp.snapshot_mb", "MB", "p50_ms (serve-warm)"},
	{"mem.reset_us", "us", "p50_ms (serve-warm), peak_rss_mb"},
	{"mem.high_water_ratio", "ratio", "p50_ms (serve-warm), peak_rss_mb"},
	{"guard.run_ms", "ms", "p50_ms/tail_ms (serve-warm)"},
	{"guard.overhead", "ratio", "p50_ms/tail_ms (serve-warm)"},
	{"guard.violations", "count", "p50_ms/tail_ms (serve-warm)"},
	{"guard.recovered", "count", "p50_ms/tail_ms (serve-warm)"},
	{"obs.overhead", "ratio", "p50_ms (serve-warm)"},
	{"obs.traced_frac", "ratio", "p50_ms (serve-warm)"},
	{"obs.harvest_ms", "ms", "p50_ms (serve-cold)"},
	{"serve.server_ms_p50", "ms", "p50_ms/rps (serve-warm, serve-cold)"},
	{"serve.exec_ms_p50", "ms", "p50_ms/rps (serve-warm, serve-cold)"},
	{"serve.build_ms_p50", "ms", "p50_ms/rps (serve-cold)"},
	{"serve.queue_depth_p50", "count", "p50_ms/rps (serve-warm, serve-cold)"},
	{"serve.cache_hit_frac", "ratio", "p50_ms/rps (serve-warm, serve-cold)"},
	{"serve.client_overhead_ms", "ms", "p50_ms/rps (serve-warm, serve-cold)"},
	{"serve.parse_request_us", "us", "p50_ms/rps (serve-warm)"},
	{"serve.encode_us", "us", "p50_ms/rps (serve-warm)"},
	{"serve.cache_get_us", "us", "p50_ms/rps (serve-warm)"},
	{"bench.trace_overhead", "ratio", "none: tracing cost of this benchmark"},
	{"bench.reconcile_transform", "ratio", "none: layer self times over transform_s"},
	{"bench.reconcile_run", "ratio", "none: layer self times over run_s"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	refs    *refStore
	out     io.Writer
}

// setups is how many times a run sets its workload up: three, whose
// median is setup_s, or one when the run reports no setup_s (traced)
// or measures nothing (--seconds 0).
func (c config) setups() int {
	if c.trace || c.seconds == 0 {
		return 1
	}
	return 3
}

// work converts --seconds into a fixed amount of work: perSecond units
// (batch passes, serve rounds) per second, calibrated on the 2-vCPU
// host the benchmark was sized on, and at least one. A fixed amount
// rather than a fixed time keeps every statistic over the same sample
// on every commit, so a faster program does not shift which requests
// its percentiles are read from.
func work(seconds int, perSecond float64) int {
	n := int(math.Round(float64(seconds) * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

// outcome is what a workload hands back: request accounting, the
// metric values, and the checks it failed.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	problems          []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloadFuncs = map[string]func(config) (*outcome, error){
	"batch":      runBatch,
	"serve-warm": func(c config) (*outcome, error) { return runServe(c, false) },
	"serve-cold": func(c config) (*outcome, error) { return runServe(c, true) },
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result turns an outcome into the JSON result, printing the metric
// table on the way. A metric the workload did not set is a bug in the
// benchmark and fails the run.
func result(o *outcome, trace bool, w io.Writer) resultJSON {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := resultJSON{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	fmt.Fprintf(w, "\n%-28s %14s  %-6s %s\n", "metric", "value", "unit", "should move")
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			o.problem("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.6g  %-6s %s\n", d.name, v, d.unit, d.moves)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, fail_frac %.4g\n", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	r.Correct = o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	return r
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: batch, serve-warm or serve-cold")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		outDir   = flag.String("out", ".bench_build", "directory for the reference cache and result records")
	)
	flag.Parse()
	run, ok := workloadFuncs[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *workload)
		os.Exit(2)
	}
	host := hostInfo()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		refs:    newRefStore(filepath.Join(*outDir, "refs")),
		out:     os.Stdout,
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r := result(o, cfg.trace, os.Stdout)
	writeRecord(*outDir, *workload, *seed, *trace, host, r, o.problems)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// writeRecord keeps each run's result with its host block under the
// output directory, so results from different hosts are never compared
// without the host in view. A failed write is reported, not fatal.
func writeRecord(dir, workload string, seed int64, trace int, h host, r resultJSON, problems []string) {
	rec := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Trace    int        `json:"trace"`
		Host     host       `json:"host"`
		Result   resultJSON `json:"result"`
		Problems []string   `json:"problems,omitempty"`
	}{workload, seed, trace, h, r, problems}
	b, _ := json.MarshalIndent(rec, "", "  ")
	dir = filepath.Join(dir, "results")
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(name, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", name, err)
	}
}
