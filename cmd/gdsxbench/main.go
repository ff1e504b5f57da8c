// Command gdsxbench regenerates every table and figure of the paper's
// evaluation section (§4) over the eight workload programs and prints
// them as text tables. Results are deterministic: timing comes from
// the schedule simulator's operation counts, memory from the simulated
// allocator.
//
// Usage:
//
//	gdsxbench [-scale test|profile|bench] [-engine compiled|tree] [-exp all|table4|table5|fig8|...|fig14]
//	gdsxbench -bench-engines [-scale ...] [-o BENCH_engine.json]
//	gdsxbench -bench-opt [-quick] [-scale ...] [-o BENCH_opt.json]
//	gdsxbench -guard [-quick] [-scale ...] [-o BENCH_guard.json]
//	gdsxbench -recovery [-scale ...] [-o BENCH_recovery.json]
//	gdsxbench -obs [-quick] [-scale ...] [-o BENCH_obs.json]
//	gdsxbench -sched [-scale ...] [-o BENCH_sched.json]
//	gdsxbench -adapt [-quick] [-scale ...] [-o BENCH_adapt.json]
//	gdsxbench -serve-load [-quick] [-o BENCH_serve.json]
//
// A mode flag selects one measurement instead (see modes). The
// wall-clock modes time host runs: the two engines, the optimization
// pipeline on vs off, the guard monitor, region recovery vs whole-
// program fallback, the observability tiers, the adaptive speculation
// ladder, and the gdsxd service under closed-loop load. -sched replays
// traced workloads through the schedule simulator under both DOALL
// dispatch policies, so its JSON is the same on any host. A mode
// writes its report to its BENCH file (or -o). With -quick, a gated
// mode measures its CI smoke subset and exits nonzero when a statistic
// regresses past its gate (see gates): against the matching rows of
// its checked-in BENCH file (or the -o file) for -bench-opt, -guard,
// -adapt and -serve-load, against an absolute 15% budget for -obs. The
// guarded modes (-guard, -recovery, -adapt) are meant for -scale profile.
//
// With -http ADDR, any mode also serves expvar (including the live
// gdsx metrics registry under the "gdsx" variable) and net/http/pprof
// on ADDR for the duration of the run:
//
//	gdsxbench -http :8080 ...   # /debug/vars, /debug/pprof
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"time"

	"gdsx"
	"gdsx/internal/bench"
	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

// report is what every measurement mode returns.
type report interface{ Render() string }

// A mode is one measurement a flag selects. Its report is rendered,
// then written to its BENCH file — or, under -quick for a mode with
// gates, held to them.
type mode struct {
	flag, usage string
	out         string // default output file
	what        string // what out holds
	// guarded modes run the access monitor, which logs every access:
	// bench-scale inputs need gigabytes of log memory.
	guarded bool
	// benchScale modes time per-run work that small inputs drown in
	// setup.
	benchScale bool
	run        func(h *bench.Harness, quick bool) (report, error)
}

// modes in precedence order: the first whose flag is set runs.
var modes = []mode{
	{flag: "serve-load", out: "BENCH_serve.json", what: "serve-load measurement",
		usage: "drive the gdsxd service layer with closed-loop concurrent clients" +
			" (steady/mixed/burst/chaos) and write latency, shed-rate and" +
			" cache-hit-rate JSON",
		run: func(_ *bench.Harness, quick bool) (report, error) { return bench.ServeLoad(quick) }},
	{flag: "obs", out: "BENCH_obs.json", what: "observability overhead",
		usage: "measure observability-layer overhead on expanded parallel runs and write JSON",
		run:   func(h *bench.Harness, quick bool) (report, error) { return h.ObsOverhead(quick) }},
	{flag: "bench-opt", out: "BENCH_opt.json", what: "optimization comparison",
		usage: "measure the compiled engine's optimization pipeline (on vs off) and write JSON",
		run:   func(h *bench.Harness, quick bool) (report, error) { return h.OptComparison(quick) }},
	{flag: "bench-engines", out: "BENCH_engine.json", what: "engine comparison", benchScale: true,
		usage: "measure tree vs compiled engine wall clock and write JSON",
		run:   func(h *bench.Harness, _ bool) (report, error) { return h.EngineComparison() }},
	{flag: "guard", out: "BENCH_guard.json", what: "guard overhead", guarded: true,
		usage: "measure guarded-execution monitor overhead on violation-free runs and write JSON",
		run:   func(h *bench.Harness, quick bool) (report, error) { return h.GuardOverhead(quick) }},
	{flag: "adapt", out: "BENCH_adapt.json", what: "adaptive-ladder measurement", guarded: true,
		usage: "measure the adaptive speculation ladder (guard-sampling check cut," +
			" runtime re-expansion, commutative privatization) and write JSON",
		run: func(h *bench.Harness, quick bool) (report, error) { return h.Adapt(quick) }},
	{flag: "sched", out: "BENCH_sched.json", what: "scheduler scaling",
		usage: "simulate DOALL scheduler scaling (static vs work-stealing) and write JSON",
		run:   func(h *bench.Harness, _ bool) (report, error) { return h.SchedScaling() }},
	{flag: "recovery", out: "BENCH_recovery.json", what: "recovery comparison", guarded: true,
		usage: "measure region rollback-and-resume vs whole-program fallback, plus" +
			" no-violation snapshot overhead, and write JSON",
		run: func(h *bench.Harness, _ bool) (report, error) { return h.Recovery() }},
}

func main() {
	scale := flag.String("scale", "bench", "input scale: test, profile or bench")
	exp := flag.String("exp", "all", "experiment: all, table4, table5, fig8..fig14")
	engineName := flag.String("engine", "compiled", "execution engine: compiled or tree")
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		selected[i] = flag.Bool(m.flag, false, m.usage)
	}
	quick := flag.Bool("quick", false,
		"with -obs: CI smoke variant — few workloads, no hot-profiler config,"+
			" nonzero exit when geomean overhead exceeds 15%."+
			" With -bench-opt: measure the smoke subset and gate against"+
			" the checked-in BENCH_opt.json."+
			" With -guard: measure the smoke subset and gate against"+
			" the checked-in BENCH_guard.json."+
			" With -adapt: skip the wall-clock acceptance checks and gate"+
			" the sampling check cut against the checked-in BENCH_adapt.json."+
			" With -serve-load: run the steady and burst scenarios at half"+
			" volume and gate p50/p99 against the checked-in BENCH_serve.json")
	httpAddr := flag.String("http", "",
		"serve expvar (live gdsx metrics) and net/http/pprof on this address"+
			" during the run, e.g. :8080")
	outFile := flag.String("o", "", "output file (default: the mode's BENCH_*.json);"+
		" with -quick, the baseline -bench-opt, -guard, -adapt and -serve-load gate against")
	flag.Parse()

	cfg := bench.DefaultConfig()
	switch *scale {
	case "test":
		cfg.Scale = workloads.Test
	case "profile":
		cfg.Scale = workloads.ProfileScale
	case "bench":
		cfg.Scale = workloads.BenchScale
	default:
		fmt.Fprintln(os.Stderr, "gdsxbench: unknown scale", *scale)
		os.Exit(2)
	}
	engine, ok := gdsx.EngineFromString(*engineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "gdsxbench: unknown engine %q (want compiled or tree)\n", *engineName)
		os.Exit(2)
	}
	cfg.Engine = engine
	if *httpAddr != "" {
		// A metrics-only observer: every harness run publishes into one
		// registry, served live at /debug/vars; an event tracer here
		// would only accumulate memory across a long bench run.
		o := &gdsx.Observer{Metrics: gdsx.NewRegistry()}
		cfg.Obs = o
		expvar.Publish("gdsx", expvar.Func(func() any { return o.Metrics.Snapshot() }))
		// The hardened server (header/read/write/idle timeouts) shared
		// with gdsxd, drained gracefully when the run finishes instead of
		// dying mid-response with the process.
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench: http:", err)
			os.Exit(1)
		}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- serve.ServeGraceful(serve.NewHTTPServer(*httpAddr, http.DefaultServeMux),
				ln, stop, 5*time.Second, nil)
		}()
		defer func() {
			close(stop)
			if err := <-done; err != nil {
				fmt.Fprintln(os.Stderr, "gdsxbench: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gdsxbench: serving expvar and pprof on %s"+
			" (/debug/vars, /debug/pprof)\n", ln.Addr())
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: engine=%s scale=%s %s %s/%s\n",
		engine, *scale, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	h := bench.New(cfg)
	start := time.Now()

	for i, m := range modes {
		if *selected[i] {
			exitOn(runMode(m, h, cfg.Scale, *quick, *outFile, start))
			return
		}
	}

	if *exp == "all" {
		rep, err := h.RunAll()
		exitOn(err)
		fmt.Print(rep.Render())
		fmt.Fprintf(os.Stderr, "\n(all experiments regenerated in %v at %s scale)\n",
			time.Since(start).Round(time.Millisecond), *scale)
		return
	}

	rep := &bench.Report{Threads: h.Threads()}
	var err error
	switch *exp {
	case "table4":
		rep.Table4, err = h.Table4()
	case "table5":
		rep.Table5, err = h.Table5()
	case "fig8":
		rep.Fig8, err = h.Figure8()
	case "fig9":
		rep.Fig9, rep.Fig9HMUn, rep.Fig9HMOp, err = h.Figure9()
	case "fig10":
		rep.Fig10, err = h.Figure10()
	case "fig11":
		rep.Fig11, rep.Fig11HM, err = h.Figure11()
	case "fig12":
		rep.Fig12, err = h.Figure12()
	case "fig13":
		rep.Fig13, err = h.Figure13()
	case "fig14":
		rep.Fig14, err = h.Figure14()
	case "ablation":
		var sync []bench.AblationSyncRow
		var hoist []bench.AblationHoistRow
		var layout []bench.AblationLayoutRow
		var chunk []bench.AblationChunkRow
		if sync, err = h.AblationSync(); err == nil {
			if hoist, err = h.AblationHoist(); err == nil {
				if layout, err = h.AblationLayout(); err == nil {
					chunk, err = h.AblationChunk()
				}
			}
		}
		exitOn(err)
		fmt.Print(bench.RenderAblations(sync, hoist))
		fmt.Print(bench.RenderLayoutAblation(layout))
		fmt.Print(bench.RenderChunkAblation(chunk))
		fmt.Fprintf(os.Stderr, "\n(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
		return
	default:
		fmt.Fprintln(os.Stderr, "gdsxbench: unknown experiment", *exp)
		os.Exit(2)
	}
	exitOn(err)
	fmt.Print(rep.RenderPartial())
	fmt.Fprintf(os.Stderr, "\n(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
}

// exitOn reports err and exits 1 when it is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
}

// runMode runs one measurement mode, renders its report, and writes it
// or, under -quick for a gated mode, holds it to its gates.
func runMode(m mode, h *bench.Harness, scale workloads.Scale, quick bool, out string, start time.Time) error {
	if m.guarded && scale == workloads.BenchScale {
		fmt.Fprintf(os.Stderr, "gdsxbench: note: -%s runs are guarded, so the monitor logs"+
			" every access; bench-scale inputs need gigabytes of log memory."+
			" -scale profile is the intended operating point.\n", m.flag)
	}
	if m.benchScale && scale != workloads.BenchScale {
		fmt.Fprintln(os.Stderr, "gdsxbench: note: at this scale per-run setup"+
			" (simulated-memory allocation) rivals the programs' execution time;"+
			" use -scale bench for a meaningful engine comparison")
	}
	rep, err := m.run(h, quick)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	gs := gatesOf(m.flag)
	if !quick || len(gs) == 0 {
		return writeJSON(rep, out, m.out, m.what, start)
	}
	// With -quick, -o names the baseline of a relative gate; a mode whose
	// gates are all absolute still writes its report there.
	if out != "" && !slices.ContainsFunc(gs, func(g gate) bool { return g.baseline != "" }) {
		if err := writeJSON(rep, out, m.out, m.what, start); err != nil {
			return err
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return checkGates(gs, data, out)
}

// writeJSON serializes a report to out (or the mode's default file).
func writeJSON(rep any, out, deflt, what string, start time.Time) error {
	if out == "" {
		out = deflt
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "\n(%s written to %s in %v)\n",
		what, out, time.Since(start).Round(time.Millisecond))
	return nil
}
