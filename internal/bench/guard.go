package bench

// Guard overhead: what the guarded-execution monitor costs on runs
// that never violate — the paper-side question being whether runtime
// dependence checking is cheap enough to leave on when the profiled
// inputs may not cover production behavior. Like the engine
// comparison, this measures host wall-clock time: the monitor adds no
// simulated operations (it observes through hooks), so its cost is
// invisible to the schedule simulator.

import (
	"fmt"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// GuardRow is one workload's unguarded-vs-guarded measurement. Both
// runs execute the same guard-transformed program (markers included)
// in parallel; the guarded run additionally carries the access monitor
// and its end-of-region replay.
type GuardRow struct {
	Workload   string  `json:"workload"`
	BaseNS     int64   `json:"base_ns"`
	GuardedNS  int64   `json:"guarded_ns"`
	Overhead   float64 `json:"overhead"`
	Violations int     `json:"violations"`
}

// GuardReport is the full guard-overhead measurement, serialized to
// BENCH_guard.json by gdsxbench -guard.
type GuardReport struct {
	Header
	Rows    []GuardRow `json:"rows"`
	Geomean float64    `json:"geomean_overhead"`
}

const guardReps = 5

// GuardQuickWorkloads is the subset the CI smoke gate measures
// (gdsxbench -guard -quick): the workload whose monitor overhead was
// historically worst (mpeg2-encoder: dense small-loop access traffic),
// plus a hash kernel and a block compressor for diversity. All three
// are DOALL-dominated: the DOACROSS workloads (dijkstra) spin-wait on
// cross-iteration posts, and on an oversubscribed CI host their
// unguarded baseline swings by an order of magnitude with goroutine
// scheduling luck, which no best-of repetition count tames.
var GuardQuickWorkloads = []string{"md5", "mpeg2-encoder", "256.bzip2"}

// GuardOverhead measures every workload's guard-transformed program
// with and without the monitor attached. Runs use the harness scale
// and the largest configured thread count; every guarded run must
// complete without a violation (the standard workloads' profiles cover
// their inputs) and match the unguarded output. quick restricts the
// sweep to GuardQuickWorkloads.
func (h *Harness) GuardOverhead(quick bool) (*GuardReport, error) {
	threads := h.cfg.Threads[len(h.cfg.Threads)-1]
	rep := &GuardReport{Header: h.header(threads, guardReps)}
	for _, w := range workloadSet(quick, GuardQuickWorkloads) {
		prog, tr, err := h.guarded(w.Name, w.Source(h.cfg.Scale), h.profileSource(w))
		if err != nil {
			return nil, err
		}
		opts := h.run(gdsx.RunOptions{Threads: threads})

		// GuardedRun recompiles the transformed source on every call, so
		// the unguarded baseline does too — the delta is purely the
		// monitor.
		var baseOut, guardOut string
		s, err := measure(1, guardReps, func() error {
			res, err := gdsx.RunSource(w.Name+"-g.c", tr.Source, opts)
			if err != nil {
				return fmt.Errorf("%s (base): %w", w.Name, err)
			}
			baseOut = res.Output
			return nil
		}, func() error {
			gres, err := gdsx.GuardedRun(prog, tr, opts)
			if err != nil {
				return fmt.Errorf("%s (guarded): %w", w.Name, err)
			}
			if gres.FellBack || gres.Violation != nil {
				return fmt.Errorf("%s: guard fired on a profiled input:\n%s",
					w.Name, gres.Violation)
			}
			guardOut = gres.Result.Output
			return nil
		})
		if err != nil {
			return nil, err
		}
		if baseOut != guardOut {
			return nil, fmt.Errorf("%s: guarded output diverges from unguarded", w.Name)
		}
		row := GuardRow{
			Workload:  w.Name,
			BaseNS:    fastest(s[0]).Nanoseconds(),
			GuardedNS: fastest(s[1]).Nanoseconds(),
		}
		row.Overhead = float64(row.GuardedNS) / float64(row.BaseNS)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Geomean = geomean(rep.Rows, func(r GuardRow) float64 { return r.Overhead })
	return rep, nil
}

// guarded compiles src and guard-transforms it, profiling on psrc.
func (h *Harness) guarded(name, src, psrc string) (*gdsx.Program, *gdsx.TransformResult, error) {
	prog, err := gdsx.Compile(name+".c", src)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Guard:         true,
		ProfileSource: psrc,
		ProfileOpts:   h.run(gdsx.RunOptions{}),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: transform: %w", name, err)
	}
	return prog, tr, nil
}

// profileSource is w's profiling input: the profile-scale source, or
// the harness-scale one when that is no larger.
func (h *Harness) profileSource(w *workloads.Workload) string {
	if h.cfg.Scale == workloads.ProfileScale || h.cfg.Scale == workloads.Test {
		return w.Source(h.cfg.Scale)
	}
	return w.Source(workloads.ProfileScale)
}

// Render formats the guard-overhead report as a text table.
func (r *GuardReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guard overhead (wall clock, %s scale, %d threads, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "workload", "unguarded", "guarded", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx\n", row.Workload,
			time.Duration(row.BaseNS).Round(time.Microsecond),
			time.Duration(row.GuardedNS).Round(time.Microsecond),
			row.Overhead)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.Geomean)
	return b.String()
}
