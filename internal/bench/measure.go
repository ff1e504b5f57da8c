package bench

// The wall-clock modes (opt, guard, obs, recovery, adapt and
// the serve obs tier) share one measurement loop, one geomean and one
// report header; only the statistic they take of the samples differs.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"gdsx/internal/workloads"
)

// Header opens every wall-clock report: what was measured, and where.
// Reports embed it, so its keys lead their JSON objects.
type Header struct {
	GoVersion string `json:"go_version"`
	Scale     string `json:"scale"`
	Threads   int    `json:"threads"`
	Reps      int    `json:"reps"`
	Host      *Host  `json:"host,omitempty"`
}

// Host names the machine a report was measured on, so numbers from
// different machines are never silently compared. Reports written
// before it existed decode with a nil Host.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h *Harness) header(threads, reps int) Header {
	return Header{
		GoVersion: runtime.Version(),
		Scale:     scaleName(h.cfg.Scale),
		Threads:   threads,
		Reps:      reps,
		Host:      thisHost(),
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

// thisHost describes the machine the process runs on.
func thisHost() *Host {
	return &Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// String renders the host on one line; a nil host is "unrecorded".
func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back
// to the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// measure times the variants: warmups untimed rounds, then reps timed
// rounds, every variant running once per round. The order rotates by
// one each round so no variant always runs first — on a fresh process
// whichever runs first is systematically cheaper (the simulated
// memory's first allocation gets pre-zeroed pages from the OS; reruns
// pay GC and memclr debt). A variant runs its own per-run checks and
// its error aborts the measurement. samples[i] holds variant i's reps
// durations.
func measure(warmups, reps int, variants ...func() error) (samples [][]time.Duration, err error) {
	n := len(variants)
	samples = make([][]time.Duration, n)
	for round := 0; round < warmups+reps; round++ {
		for j := 0; j < n; j++ {
			v := (round + j) % n
			start := time.Now()
			if err := variants[v](); err != nil {
				return nil, err
			}
			if round >= warmups {
				samples[v] = append(samples[v], time.Since(start))
			}
		}
	}
	return samples, nil
}

// fastest is the best-of-k statistic: it discards one-off scheduler
// and GC noise.
func fastest(ds []time.Duration) time.Duration { return slices.Min(ds) }

// median returns the middle sample (sorted); the mean of the two
// middles for even counts. Unlike the minimum, it does not hand a
// residual fresh-heap outlier to whichever variant happened to get it.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of f over rows.
func geomean[T any](rows []T, f func(T) float64) float64 {
	logSum := 0.0
	for _, row := range rows {
		logSum += math.Log(f(row))
	}
	return math.Exp(logSum / float64(len(rows)))
}

// GeomeanOver is the geometric mean of f over the rows whose key is in
// names, taken in names order, so a quick measurement can be compared
// with the matching rows of a full checked-in report. It reports false
// when a name has no row.
func GeomeanOver[T any](rows []T, key func(T) string, f func(T) float64, names []string) (float64, bool) {
	sub := make([]T, 0, len(names))
	for _, name := range names {
		i := slices.IndexFunc(rows, func(row T) bool { return key(row) == name })
		if i < 0 {
			return 0, false
		}
		sub = append(sub, rows[i])
	}
	return geomean(sub, f), true
}

// workloadSet returns every workload, or with quick set only the named
// smoke subset.
func workloadSet(quick bool, subset []string) []*workloads.Workload {
	if !quick {
		return workloads.All()
	}
	ws := make([]*workloads.Workload, len(subset))
	for i, name := range subset {
		ws[i] = workloads.ByName(name)
	}
	return ws
}
