package bench

// Adaptive speculation ladder: what each rung buys. Three measurements,
// serialized together as BENCH_adapt.json by gdsxbench -adapt.
//
//  1. Tiered guard sampling on clean regions: the monitor's checked
//     accesses (the "guard.events_logged" counter) under full guarding
//     vs the sampling ladder, on a workload that re-executes its region
//     enough times to earn the sampled tiers. The cut is deterministic
//     — it counts events, not nanoseconds — and the ladder must cut
//     checking at least in half.
//  2. Runtime re-expansion: the window workload violates at 4 threads
//     on every region execution, so a recover-only run is stuck
//     rolling back until the region demotes to sequential. The
//     adaptive driver re-expands (layout flip, then copy-count
//     halving) into a clean 2-thread configuration; the row compares
//     that steady state against the stuck baseline.
//  3. Commutative-update privatization: the reduction workload's
//     carried flow is real, so expansion alone cannot parallelize it;
//     privatized per-thread accumulators can. The row reports the
//     simulated loop speedup over native sequential execution (the
//     paper figures' currency — deterministic operation counts), with
//     a real guarded run proving engagement and correctness.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/workloads"
)

// AdaptSampleRow is one clean-region sampling measurement: the same
// guarded run with the tier controller off and on.
type AdaptSampleRow struct {
	// Workload labels the row; a "/k<N>" suffix marks a non-default
	// first sampled tier.
	Workload string `json:"workload"`
	// FullEvents and SampledEvents count the accesses the monitor
	// logged and replayed across the whole run (all region executions).
	FullEvents    int64 `json:"full_events"`
	SampledEvents int64 `json:"sampled_events"`
	// CheckCut is FullEvents/SampledEvents — how much checking the
	// ladder removed. Deterministic: the workload is clean, so the tier
	// schedule (and therefore the sampled log volume) never varies.
	CheckCut float64 `json:"check_cut"`
	// Wall clock for context; the gate reads CheckCut.
	FullNS    int64 `json:"full_ns"`
	SampledNS int64 `json:"sampled_ns"`
}

// AdaptReexpandRow compares the recovery ladder without and with
// runtime re-expansion on a region that violates as expanded.
type AdaptReexpandRow struct {
	Workload string `json:"workload"`
	// BaselineNS is the recover-only run: rollback and sequential
	// re-execution on every violating region execution until demotion.
	// BaselineRecovered counts those rollbacks.
	BaselineNS        int64 `json:"baseline_ns"`
	BaselineRecovered int   `json:"baseline_recovered"`
	// AdaptedNS is the steady state the adaptive driver reached —
	// the re-expanded program at the reduced copy count, violation-free.
	AdaptedNS int64   `json:"adapted_ns"`
	Speedup   float64 `json:"speedup"`
	// The decisions that got there.
	Attempts     int    `json:"attempts"`
	Reexpansions int    `json:"reexpansions"`
	FinalLayout  string `json:"final_layout"`
	FinalThreads int    `json:"final_threads"`
}

// AdaptCommRow compares the privatized parallel reduction against
// native sequential execution in the schedule simulator's currency —
// deterministic operation counts, like the paper's speedup figures
// (host wall clock cannot show a parallel win for any interpreted
// workload; see the package comment of bench.go).
type AdaptCommRow struct {
	Workload      string `json:"workload"`
	NativeLoopOps int64  `json:"native_loop_ops"`
	// Speedup maps thread count to the simulated loop speedup of the
	// commutative-expanded program over the native sequential loop. The
	// top-thread-count entry must exceed 1: privatization exists to
	// parallelize the reduction expansion alone cannot touch.
	Speedup map[int]float64 `json:"speedup"`
	// Privatizer engagement evidence from a real guarded parallel run
	// (which also checks output correctness and violation-freedom).
	Redirected int64 `json:"redirected"`
	Merged     int64 `json:"merged"`
}

// AdaptReport is the full adaptive-ladder measurement, serialized to
// BENCH_adapt.json by gdsxbench -adapt.
type AdaptReport struct {
	Header
	Sampling []AdaptSampleRow `json:"sampling"`
	// SampleGeomean is the geomean check cut over the sampling rows —
	// the scalar the CI smoke gate tracks (higher is better).
	SampleGeomean float64            `json:"sample_geomean"`
	Reexpand      []AdaptReexpandRow `json:"reexpand"`
	Comm          []AdaptCommRow     `json:"comm"`
}

const adaptReps = 3

// Adapt runs the three adaptive-ladder measurements. quick skips the
// wall-clock-dependent acceptance checks (CI hosts are noisy; the
// smoke gate compares the deterministic check cut against the
// checked-in report instead) but still runs every section.
func (h *Harness) Adapt(quick bool) (*AdaptReport, error) {
	threads := h.cfg.Threads[len(h.cfg.Threads)-1]
	rep := &AdaptReport{Header: h.header(threads, adaptReps)}

	// Section 1: sampled-tier check cut on the clean escape profile
	// (ten region executions — enough to earn successive sampled
	// tiers), under the default ladder and an aggressive k=8 first
	// tier.
	for _, cfg := range []struct {
		label string
		spec  gdsx.TierSpec
	}{
		{"adversarial-escape", gdsx.TierSpec{}},
		{"adversarial-escape/k8", gdsx.TierSpec{SampleK: 8}},
	} {
		row, err := h.adaptSampleRow(cfg.label, cfg.spec, threads)
		if err != nil {
			return nil, err
		}
		rep.Sampling = append(rep.Sampling, *row)
	}
	rep.SampleGeomean = geomean(rep.Sampling, func(r AdaptSampleRow) float64 { return r.CheckCut })
	if rep.SampleGeomean < 2 {
		return nil, fmt.Errorf("sampling: geomean check cut %.2fx is below the 2x floor"+
			" the ladder must clear on clean regions", rep.SampleGeomean)
	}

	// Section 2: the re-expansion win. 4 threads static so the
	// violation window straddles a chunk boundary on every execution.
	rerow, err := h.adaptReexpandRow(quick)
	if err != nil {
		return nil, err
	}
	rep.Reexpand = append(rep.Reexpand, *rerow)

	// Section 3: the privatized reduction against native sequential.
	crow, err := h.adaptCommRow(threads)
	if err != nil {
		return nil, err
	}
	rep.Comm = append(rep.Comm, *crow)
	return rep, nil
}

// adaptSampleRow measures one sampling configuration. Both runs
// execute the same guarded program; only the tier controller differs,
// so the event-count delta is exactly the checking the ladder skipped.
func (h *Harness) adaptSampleRow(label string, spec gdsx.TierSpec, threads int) (*AdaptSampleRow, error) {
	w := workloads.AdversarialEscape()
	src := w.Profile(h.cfg.Scale)
	prog, err := gdsx.Compile(w.Name+".c", src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", label, err)
	}
	want, err := prog.Run(h.run(gdsx.RunOptions{ForceSequential: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", label, err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{Guard: true, ProfileSource: src})
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", label, err)
	}

	// Each run gets its own registry: the monitor publishes its logged-
	// event count there, and the cut is the ratio between two isolated
	// counts (the harness-wide observer, if any, cannot be shared
	// without conflating the two runs).
	row := &AdaptSampleRow{Workload: label}
	run := func(sample *gdsx.TierSpec, events *int64) func() error {
		return func() error {
			reg := gdsx.NewRegistry()
			opts := h.run(gdsx.RunOptions{Threads: threads, Sched: gdsx.SchedStatic})
			opts.Obs = &gdsx.Observer{Metrics: reg}
			opts.Sample = sample
			opts.Recover = &gdsx.RecoverySpec{}
			res, err := gdsx.GuardedRun(prog, tr, opts)
			if err != nil {
				return fmt.Errorf("%s: guarded run: %w", label, err)
			}
			if res.FellBack || len(res.Violations) > 0 {
				return fmt.Errorf("%s: guard fired on the clean profile", label)
			}
			if res.Result.Output != want.Output {
				return fmt.Errorf("%s: guarded output diverges from native", label)
			}
			*events = reg.Snapshot().Counters["guard.events_logged"]
			return nil
		}
	}
	s, err := measure(1, adaptReps, run(nil, &row.FullEvents), run(&spec, &row.SampledEvents))
	if err != nil {
		return nil, err
	}
	row.FullNS = fastest(s[0]).Nanoseconds()
	row.SampledNS = fastest(s[1]).Nanoseconds()
	if row.SampledEvents <= 0 {
		return nil, fmt.Errorf("%s: sampled run logged no events", label)
	}
	row.CheckCut = float64(row.FullEvents) / float64(row.SampledEvents)
	return row, nil
}

// adaptReexpandRow measures the window workload stuck in the recovery
// ladder vs the configuration the adaptive driver re-expands into.
func (h *Harness) adaptReexpandRow(quick bool) (*AdaptReexpandRow, error) {
	w := workloads.AdversarialWindow()
	prog, err := gdsx.Compile(w.Name+".c", w.Expose(h.cfg.Scale))
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	want, err := prog.Run(h.run(gdsx.RunOptions{ForceSequential: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	topts := gdsx.TransformOptions{Guard: true, ProfileSource: w.Profile(h.cfg.Scale)}
	tr, err := gdsx.Transform(prog, topts)
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
	}
	row := &AdaptReexpandRow{Workload: w.Name}

	// The adaptive decision pass is untimed: re-expansion is a one-off
	// cost amortized over the program's lifetime, and what production
	// keeps paying is the steady state it lands in.
	ares, err := gdsx.AdaptiveRun(prog, gdsx.AdaptiveOptions{
		Transform: topts,
		Run:       h.run(gdsx.RunOptions{Threads: 4, Sched: gdsx.SchedStatic}),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: adaptive run: %w", w.Name, err)
	}
	if ares.Final.Result.Output != want.Output {
		return nil, fmt.Errorf("%s: adaptive output diverges from native", w.Name)
	}
	if ares.Threads < 2 {
		return nil, fmt.Errorf("%s: re-expansion failed to keep the region parallel"+
			" (final copy count %d)", w.Name, ares.Threads)
	}
	if len(ares.Reexpansions) == 0 {
		return nil, fmt.Errorf("%s: the violating window triggered no re-expansion", w.Name)
	}
	row.Attempts = ares.Attempts
	row.Reexpansions = len(ares.Reexpansions)
	row.FinalLayout = ares.Layout
	row.FinalThreads = ares.Threads

	// run measures one side: the violating baseline passes recovered to
	// receive its rollback count; the adapted side passes nil and must
	// run violation-free.
	run := func(side string, t *gdsx.TransformResult, threads int, recovered *int) func() error {
		return func() error {
			opts := h.run(gdsx.RunOptions{Threads: threads, Sched: gdsx.SchedStatic})
			opts.Recover = &gdsx.RecoverySpec{}
			// Both sides run the full ladder, sampling included. The tier
			// spec only affects clean streaks, so the violating baseline
			// is untouched by it; the adapted steady state earns the
			// sampled tier immediately (the region was just re-expanded
			// specifically to be clean), which is the configuration
			// production keeps paying for.
			opts.Sample = &gdsx.TierSpec{PromoteAfter: 1, SampleK: 8}
			res, err := gdsx.GuardedRun(prog, t, opts)
			switch {
			case err != nil:
			case res.Result.Output != want.Output:
				err = fmt.Errorf("output diverges from native")
			case recovered == nil && len(res.Violations) > 0:
				err = fmt.Errorf("steady state still violates (%d regions)", len(res.Violations))
			default:
				if recovered != nil {
					*recovered = res.Recovered
				}
				return nil
			}
			return fmt.Errorf("%s (%s): %w", w.Name, side, err)
		}
	}
	s, err := measure(1, adaptReps,
		run("baseline", tr, 4, &row.BaselineRecovered),
		run("adapted", ares.Transform, ares.Threads, nil))
	if err != nil {
		return nil, err
	}
	row.BaselineNS = fastest(s[0]).Nanoseconds()
	row.AdaptedNS = fastest(s[1]).Nanoseconds()
	if row.BaselineRecovered == 0 {
		return nil, fmt.Errorf("%s: baseline never rolled back — the window did not violate", w.Name)
	}
	row.Speedup = float64(row.BaselineNS) / float64(row.AdaptedNS)
	if !quick && row.Speedup <= 1 {
		return nil, fmt.Errorf("%s: adapted steady state (%.2fx) does not beat the"+
			" stuck-at-demoted baseline", w.Name, row.Speedup)
	}
	return row, nil
}

// adaptCommRow measures the commutative reduction: simulated loop
// speedup of the privatized parallel loop over the native sequential
// one (the same currency as Figure 11's expansion speedups), plus a
// real guarded parallel run proving the privatizer engages, the region
// stays violation-free, and the output matches.
func (h *Harness) adaptCommRow(threads int) (*AdaptCommRow, error) {
	w := workloads.CommReduce()
	src := w.Profile(h.cfg.Scale)
	prog, err := gdsx.Compile(w.Name+".c", src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	eopts := expand.Optimized()
	eopts.Commutative = true
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Guard:         true,
		ProfileSource: src,
		Expand:        &eopts,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
	}
	row := &AdaptCommRow{Workload: w.Name, Speedup: map[int]float64{}}

	// Traced sequential runs of the native and the commutative-expanded
	// program feed the schedule simulator (see Harness.Data): the
	// expansion left the accumulators shared — sequentially that is
	// simply the in-order reduction, so the trace is exact — and marked
	// the loop parallel because privatization will carry its flow.
	native, err := prog.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	exp, err := gdsx.RunSource(w.Name+"-x.c", tr.Source,
		h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: expanded run: %w", w.Name, err)
	}
	if exp.Output != native.Output {
		return nil, fmt.Errorf("%s: expanded output diverges from native", w.Name)
	}
	row.NativeLoopOps = loopOps(native)
	for _, n := range h.cfg.Threads {
		lt, _ := h.loopTime(exp, n)
		row.Speedup[n] = float64(row.NativeLoopOps) / float64(lt)
	}
	if row.Speedup[threads] <= 1 {
		return nil, fmt.Errorf("%s: privatized reduction (%.2fx at %d threads) does"+
			" not beat sequential execution", w.Name, row.Speedup[threads], threads)
	}

	// The engagement check: a real guarded parallel run under the full
	// ladder. The region is clean (privatization removed its carried
	// flow), so it must stay violation-free, produce native output, and
	// actually route the accumulator traffic through private copies.
	opts := h.run(gdsx.RunOptions{Threads: threads, Sched: gdsx.SchedStatic})
	opts.Recover = &gdsx.RecoverySpec{}
	opts.Sample = &gdsx.TierSpec{PromoteAfter: 1, SampleK: 8}
	gres, err := gdsx.GuardedRun(prog, tr, opts)
	if err != nil {
		return nil, fmt.Errorf("%s (privatized): %w", w.Name, err)
	}
	if gres.FellBack || len(gres.Violations) > 0 {
		return nil, fmt.Errorf("%s: privatization left a violation:\n%v",
			w.Name, gres.Violation)
	}
	if gres.Result.Output != native.Output {
		return nil, fmt.Errorf("%s: privatized output diverges from sequential", w.Name)
	}
	if gres.Comm == nil || gres.Comm.Redirected == 0 || gres.Comm.Merged == 0 {
		return nil, fmt.Errorf("%s: the privatizer never engaged: %+v", w.Name, gres.Comm)
	}
	row.Redirected = gres.Comm.Redirected
	row.Merged = gres.Comm.Merged
	return row, nil
}

// threadCounts collects the sorted thread counts present in the comm
// rows' speedup maps (JSON round-trips lose the config ordering).
func threadCounts(rows []AdaptCommRow) []int {
	seen := map[int]bool{}
	for _, row := range rows {
		for n := range row.Speedup {
			seen[n] = true
		}
	}
	ns := make([]int, 0, len(seen))
	for n := range seen {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// Render formats the adaptive-ladder report as text tables.
func (r *AdaptReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guard sampling: checked accesses, full vs tiered (%s scale, %d threads, %s)\n",
		r.Scale, r.Threads, r.GoVersion)
	fmt.Fprintf(&b, "%-24s %12s %12s %9s %10s %10s\n",
		"workload", "full", "sampled", "cut", "full", "sampled")
	for _, row := range r.Sampling {
		fmt.Fprintf(&b, "%-24s %12d %12d %8.2fx %10v %10v\n",
			row.Workload, row.FullEvents, row.SampledEvents, row.CheckCut,
			time.Duration(row.FullNS).Round(time.Microsecond),
			time.Duration(row.SampledNS).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "%-24s %12s %12s %8.2fx\n", "geomean", "", "", r.SampleGeomean)

	fmt.Fprintf(&b, "\nRuntime re-expansion: stuck recovery baseline vs adapted steady state (best of %d)\n", r.Reps)
	fmt.Fprintf(&b, "%-20s %12s %10s %12s %8s %s\n",
		"workload", "baseline", "rollbacks", "adapted", "speedup", "decision")
	for _, row := range r.Reexpand {
		fmt.Fprintf(&b, "%-20s %12v %10d %12v %7.2fx %d attempts -> %s x%d\n",
			row.Workload,
			time.Duration(row.BaselineNS).Round(time.Microsecond), row.BaselineRecovered,
			time.Duration(row.AdaptedNS).Round(time.Microsecond), row.Speedup,
			row.Attempts, row.FinalLayout, row.FinalThreads)
	}

	fmt.Fprintf(&b, "\nCommutative privatization: simulated loop speedup over sequential\n")
	fmt.Fprintf(&b, "%-20s %12s", "workload", "loop ops")
	for _, n := range threadCounts(r.Comm) {
		fmt.Fprintf(&b, " %7s", fmt.Sprintf("n=%d", n))
	}
	fmt.Fprintf(&b, " %12s %8s\n", "redirected", "merged")
	for _, row := range r.Comm {
		fmt.Fprintf(&b, "%-20s %12d", row.Workload, row.NativeLoopOps)
		for _, n := range threadCounts(r.Comm) {
			fmt.Fprintf(&b, " %6.2fx", row.Speedup[n])
		}
		fmt.Fprintf(&b, " %12d %8d\n", row.Redirected, row.Merged)
	}
	return b.String()
}
