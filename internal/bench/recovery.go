package bench

// Recovery benefit and cost: region-scoped rollback recovery against
// the whole-program sequential fallback on violating inputs (the
// benefit: only the bad region loses its parallelism), and the
// incremental write-log snapshot against plain guarded execution on
// violation-free inputs (the cost: pre-image copying on the first
// write to each page, paid even when no rollback ever happens).

import (
	"fmt"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// RecoveryRow compares the two recovery ladders on one violating
// adversarial workload: GuardedRun without RunOptions.Recover (discard
// the run, re-execute the whole program sequentially) versus with it
// (roll back and re-execute just the violating regions).
type RecoveryRow struct {
	Workload string `json:"workload"`
	// FallbackNS is the whole-program ladder: parallel attempt + full
	// sequential re-execution.
	FallbackNS int64 `json:"fallback_ns"`
	// RecoverNS is the region ladder: parallel run with the violating
	// regions rolled back and re-executed sequentially in place.
	RecoverNS int64 `json:"recover_ns"`
	// Speedup is FallbackNS / RecoverNS.
	Speedup float64 `json:"speedup"`
	// Recovered counts rolled-back regions in the recovery run, with
	// the pre-image volume the rollbacks restored.
	Recovered     int   `json:"recovered"`
	RollbackPages int   `json:"rollback_pages"`
	RollbackBytes int64 `json:"rollback_bytes"`
}

// RecoveryOverheadRow measures the snapshot cost on one violation-free
// standard workload: both runs are guarded; the recovery run
// additionally write-logs every parallel region.
type RecoveryOverheadRow struct {
	Workload string  `json:"workload"`
	BaseNS   int64   `json:"base_ns"`  // guarded, no snapshots
	SnapNS   int64   `json:"snap_ns"`  // guarded + region snapshots
	Overhead float64 `json:"overhead"` // SnapNS / BaseNS
	// SnapshotPages/Bytes total the write log across all committed
	// regions — the memory the no-violation path paid for insurance.
	SnapshotPages int   `json:"snapshot_pages"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// RecoveryReport is the full measurement, serialized to
// BENCH_recovery.json by gdsxbench -recovery.
type RecoveryReport struct {
	Header
	Violating []RecoveryRow         `json:"violating"`
	Overhead  []RecoveryOverheadRow `json:"overhead"`
	// GeomeanOverhead summarizes the violation-free snapshot cost.
	GeomeanOverhead float64 `json:"geomean_overhead"`
}

const recoveryReps = 3

// Recovery measures both sides of region-scoped recovery. The
// violating side runs the adversarial workloads' exposing inputs under
// both ladders and checks they produce identical (native) output; the
// overhead side runs the standard workloads' violation-free inputs
// guarded with and without snapshots.
func (h *Harness) Recovery() (*RecoveryReport, error) {
	threads := h.cfg.Threads[len(h.cfg.Threads)-1]
	rep := &RecoveryReport{Header: h.header(threads, recoveryReps)}

	for _, a := range workloads.AdversarialAll() {
		prog, tr, err := h.guarded(a.Name, a.Expose(h.cfg.Scale), a.Profile(h.cfg.Scale))
		if err != nil {
			return nil, err
		}
		opts := h.run(gdsx.RunOptions{Threads: threads})
		ropts := opts
		ropts.Recover = &gdsx.RecoverySpec{}

		row := RecoveryRow{Workload: a.Name}
		var fallOut, recOut string
		s, err := measure(0, recoveryReps, func() error {
			fres, err := gdsx.GuardedRun(prog, tr, opts)
			if err != nil {
				return fmt.Errorf("%s (fallback): %w", a.Name, err)
			}
			if !fres.FellBack {
				return fmt.Errorf("%s: exposing input did not trip the guard", a.Name)
			}
			fallOut = fres.Result.Output
			return nil
		}, func() error {
			rres, err := gdsx.GuardedRun(prog, tr, ropts)
			if err != nil {
				return fmt.Errorf("%s (recover): %w", a.Name, err)
			}
			if rres.FellBack {
				return fmt.Errorf("%s: recovery run still fell back whole-program", a.Name)
			}
			recOut = rres.Result.Output
			row.Recovered = rres.Recovered
			row.RollbackPages, row.RollbackBytes = 0, 0
			for _, r := range rres.Regions {
				row.RollbackPages += r.RollbackPages
				row.RollbackBytes += r.RollbackBytes
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if fallOut != recOut {
			return nil, fmt.Errorf("%s: recovery output diverges from fallback output", a.Name)
		}
		row.FallbackNS = fastest(s[0]).Nanoseconds()
		row.RecoverNS = fastest(s[1]).Nanoseconds()
		row.Speedup = float64(row.FallbackNS) / float64(row.RecoverNS)
		rep.Violating = append(rep.Violating, row)
	}

	for _, w := range workloads.All() {
		prog, tr, err := h.guarded(w.Name, w.Source(h.cfg.Scale), h.profileSource(w))
		if err != nil {
			return nil, err
		}
		opts := h.run(gdsx.RunOptions{Threads: threads})
		ropts := opts
		ropts.Recover = &gdsx.RecoverySpec{}

		row := RecoveryOverheadRow{Workload: w.Name}
		var baseOut, snapOut string
		s, err := measure(1, recoveryReps, func() error {
			bres, err := gdsx.GuardedRun(prog, tr, opts)
			if err != nil {
				return fmt.Errorf("%s (base): %w", w.Name, err)
			}
			baseOut = bres.Result.Output
			return nil
		}, func() error {
			sres, err := gdsx.GuardedRun(prog, tr, ropts)
			if err != nil {
				return fmt.Errorf("%s (snapshot): %w", w.Name, err)
			}
			if sres.Recovered != 0 || sres.FellBack {
				return fmt.Errorf("%s: rollback on a profiled input", w.Name)
			}
			snapOut = sres.Result.Output
			row.SnapshotPages, row.SnapshotBytes = 0, 0
			for _, r := range sres.Regions {
				row.SnapshotPages += r.SnapshotPages
				row.SnapshotBytes += r.SnapshotBytes
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if baseOut != snapOut {
			return nil, fmt.Errorf("%s: snapshot run output diverges", w.Name)
		}
		row.BaseNS = fastest(s[0]).Nanoseconds()
		row.SnapNS = fastest(s[1]).Nanoseconds()
		row.Overhead = float64(row.SnapNS) / float64(row.BaseNS)
		rep.Overhead = append(rep.Overhead, row)
	}
	rep.GeomeanOverhead = geomean(rep.Overhead, func(r RecoveryOverheadRow) float64 { return r.Overhead })
	return rep, nil
}

// Render formats the recovery report as text tables.
func (r *RecoveryReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery vs whole-program fallback on violating inputs "+
		"(wall clock, %s scale, %d threads, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-26s %12s %12s %8s %10s %12s\n",
		"workload", "fallback", "recover", "speedup", "rollbacks", "restored")
	for _, row := range r.Violating {
		fmt.Fprintf(&b, "%-26s %12v %12v %7.2fx %10d %11dB\n", row.Workload,
			time.Duration(row.FallbackNS).Round(time.Microsecond),
			time.Duration(row.RecoverNS).Round(time.Microsecond),
			row.Speedup, row.Recovered, row.RollbackBytes)
	}
	fmt.Fprintf(&b, "\nSnapshot overhead on violation-free runs (guarded both sides)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %9s %8s %12s\n",
		"workload", "no snapshot", "snapshot", "overhead", "pages", "logged")
	for _, row := range r.Overhead {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx %8d %11dB\n", row.Workload,
			time.Duration(row.BaseNS).Round(time.Microsecond),
			time.Duration(row.SnapNS).Round(time.Microsecond),
			row.Overhead, row.SnapshotPages, row.SnapshotBytes)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.GeomeanOverhead)
	return b.String()
}
