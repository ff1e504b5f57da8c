package bench

// Optimization-pipeline comparison: wall-clock time of the compiled
// engine with its optimization passes (register promotion,
// superinstruction fusion, profile-guided site specialization) against
// the same engine with the pipeline disabled. This measures host time:
// the passes change dispatch cost only; output and counters stay
// identical (see the opt-parity
// tests at the repository root). Each workload is first profiled at
// the smaller profile scale with the hot-site profiler, and the
// resulting site weights drive the specializer during the measured
// runs — the same two-step flow as `gdsx pipeline -hotspots-json`
// followed by `-opt-profile`.

import (
	"fmt"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// OptRow is one workload's noopt-vs-opt wall-clock measurement.
type OptRow struct {
	Workload string  `json:"workload"`
	NoOptNS  int64   `json:"noopt_ns"`
	OptNS    int64   `json:"opt_ns"`
	Speedup  float64 `json:"speedup"`
}

// OptReport is the full optimization comparison, serialized to
// BENCH_opt.json by gdsxbench -bench-opt.
type OptReport struct {
	Header
	Rows    []OptRow `json:"rows"`
	Geomean float64  `json:"geomean_speedup"`
}

// OptQuickWorkloads is the subset the CI smoke gate measures
// (gdsxbench -bench-opt -quick): enough diversity — pointer chasing,
// bit twiddling, block transforms — to catch a pipeline regression
// without rerunning the full suite.
var OptQuickWorkloads = []string{"dijkstra", "256.bzip2", "md5"}

// optReps is how many times each (workload, pipeline) pair runs; the
// minimum wall-clock of the repetitions is reported.
const optReps = 3

// runVariant is a measured variant that runs prog once under opts.
func runVariant(name string, prog *gdsx.Program, opts gdsx.RunOptions) func() error {
	return func() error {
		if _, err := prog.Run(opts); err != nil {
			return fmt.Errorf("%s (%v): %w", name, opts.Engine, err)
		}
		return nil
	}
}

// hotProfile collects a workload's hot-site weights at profile scale.
func hotProfile(w *workloads.Workload, memSize int64) (*gdsx.SiteProfile, error) {
	prog, err := gdsx.Compile(w.Name+".c", w.Source(workloads.ProfileScale))
	if err != nil {
		return nil, err
	}
	o := gdsx.NewObserver(true)
	if _, err := prog.Run(gdsx.RunOptions{Threads: 1, MemSize: memSize, Obs: o}); err != nil {
		return nil, err
	}
	return gdsx.SiteProfileFromReports(o.Hot.Report()), nil
}

// OptComparison measures every workload's native program under the
// unoptimized and optimized compiled engine at the harness scale,
// single-threaded. quick restricts the sweep to OptQuickWorkloads.
func (h *Harness) OptComparison(quick bool) (*OptReport, error) {
	rep := &OptReport{Header: h.header(1, optReps)}
	for _, w := range workloadSet(quick, OptQuickWorkloads) {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		sites, err := hotProfile(w, h.cfg.MemSize)
		if err != nil {
			return nil, fmt.Errorf("%s: hot profile: %w", w.Name, err)
		}
		opts := gdsx.RunOptions{Threads: 1, MemSize: h.cfg.MemSize, Engine: gdsx.EngineCompiledNoOpt}
		noopt := runVariant(w.Name, prog, opts)
		opts.Engine, opts.OptProfile = gdsx.EngineCompiled, sites
		s, err := measure(1, optReps, noopt, runVariant(w.Name, prog, opts))
		if err != nil {
			return nil, err
		}
		row := OptRow{
			Workload: w.Name,
			NoOptNS:  fastest(s[0]).Nanoseconds(),
			OptNS:    fastest(s[1]).Nanoseconds(),
		}
		row.Speedup = float64(row.NoOptNS) / float64(row.OptNS)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Geomean = geomean(rep.Rows, func(r OptRow) float64 { return r.Speedup })
	return rep, nil
}

// Render formats the comparison as a text table.
func (r *OptReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Optimization pipeline (wall clock, %s scale, %d thread, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "workload", "noopt", "opt", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx\n", row.Workload,
			time.Duration(row.NoOptNS).Round(time.Microsecond),
			time.Duration(row.OptNS).Round(time.Microsecond),
			row.Speedup)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.Geomean)
	return b.String()
}
