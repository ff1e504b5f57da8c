package bench

// Engine comparison: unlike every other experiment in this package,
// which reports deterministic simulated operation counts, this one
// measures host wall-clock time — the only quantity the choice of
// execution engine can change. Both engines produce byte-identical
// output and identical counters (see the cross-validation test at the
// repository root), so the comparison runs each workload under each
// engine and reports the speedup of the closure-compiling engine over
// the tree-walking reference.

import (
	"fmt"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// EngineRow is one workload's tree-vs-compiled wall-clock measurement.
type EngineRow struct {
	Workload   string  `json:"workload"`
	TreeNS     int64   `json:"tree_ns"`
	CompiledNS int64   `json:"compiled_ns"`
	Speedup    float64 `json:"speedup"`
}

// EngineReport is the full engine comparison, serialized to
// BENCH_engine.json by gdsxbench -bench-engines.
type EngineReport struct {
	Header
	Rows    []EngineRow `json:"rows"`
	Geomean float64     `json:"geomean_speedup"`
}

// engineReps is how many times each (workload, engine) pair runs; the
// minimum wall-clock of the repetitions is reported.
const engineReps = 3

// EngineComparison measures every workload's native program under both
// engines at the harness scale, single-threaded so the measurement is
// pure dispatch cost rather than parallel-runtime behavior. Machine
// construction is timed: closure compilation is part of what the
// compiled engine pays per run.
func (h *Harness) EngineComparison() (*EngineReport, error) {
	rep := &EngineReport{Header: h.header(1, engineReps)}
	for _, w := range workloads.All() {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		opts := gdsx.RunOptions{Threads: 1, MemSize: h.cfg.MemSize, Engine: gdsx.EngineTree}
		tree := runVariant(w.Name, prog, opts)
		opts.Engine = gdsx.EngineCompiled
		s, err := measure(1, engineReps, tree, runVariant(w.Name, prog, opts))
		if err != nil {
			return nil, err
		}
		row := EngineRow{
			Workload:   w.Name,
			TreeNS:     fastest(s[0]).Nanoseconds(),
			CompiledNS: fastest(s[1]).Nanoseconds(),
		}
		row.Speedup = float64(row.TreeNS) / float64(row.CompiledNS)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Geomean = geomean(rep.Rows, func(r EngineRow) float64 { return r.Speedup })
	return rep, nil
}

// runVariant is a measured variant that runs prog once under opts.
func runVariant(name string, prog *gdsx.Program, opts gdsx.RunOptions) func() error {
	return func() error {
		if _, err := prog.Run(opts); err != nil {
			return fmt.Errorf("%s (%v): %w", name, opts.Engine, err)
		}
		return nil
	}
}

// scaleName names a workload scale for reports.
func scaleName(s workloads.Scale) string {
	switch s {
	case workloads.Test:
		return "test"
	case workloads.ProfileScale:
		return "profile"
	case workloads.BenchScale:
		return "bench"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// Render formats the comparison as a text table.
func (r *EngineReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine comparison (wall clock, %s scale, %d thread, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "workload", "tree", "compiled", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx\n", row.Workload,
			time.Duration(row.TreeNS).Round(time.Microsecond),
			time.Duration(row.CompiledNS).Round(time.Microsecond),
			row.Speedup)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.Geomean)
	return b.String()
}
