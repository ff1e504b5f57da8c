package main

import (
	"encoding/json"
	"fmt"
	"os"

	"gdsx/internal/bench"
)

// A gate holds one statistic of a -quick report to a limit. A relative
// gate compares it with the same statistic of a checked-in baseline,
// taken over the same subset rows; an absolute gate bounds it outright.
// Gates read reports through their JSON keys, so the quick run and the
// baseline are read by one code path and the keys the gates name are
// the BENCH schema the files promise to keep.
type gate struct {
	mode     string // flag of the mode whose -quick run it checks
	what     string // the statistic, as the verdict lines name it
	baseline string // default baseline file (-o overrides); "" for an absolute limit
	// rows is the key of the row array whose geomean the statistic is,
	// and key the row field naming the subset; rows "" makes col a
	// report-wide scalar.
	rows, key string
	col       string  // the statistic's field
	higher    bool    // higher is better
	tol       float64 // allowed regression as a fraction of the baseline, or the absolute limit
	unit      string  // "x", "ms" or "%"
}

// gates is every -quick regression check, in the order each mode
// prints them.
var gates = []gate{
	// Wall-clock speedups on shared CI machines are noisy per workload;
	// the geomean over the subset with a 5% allowance holds steady while
	// still catching a disabled or broken pass, whose signature is the
	// ratio collapsing toward 1.0x.
	{mode: "bench-opt", what: "optimized-engine speedup", baseline: "BENCH_opt.json",
		rows: "rows", key: "workload", col: "speedup", higher: true, tol: 0.05, unit: "x"},
	// Lower is better (1.0x = free monitor): this catches shared-cache-
	// line traffic coming back onto the no-violation path.
	{mode: "guard", what: "guard-monitor overhead", baseline: "BENCH_guard.json",
		rows: "rows", key: "workload", col: "overhead", tol: 0.05, unit: "x"},
	// The cut counts monitor events, not nanoseconds, so it is stable
	// across hosts; a fall means the tier ladder stopped promoting clean
	// regions.
	{mode: "adapt", what: "guard-sampling check cut", baseline: "BENCH_adapt.json",
		rows: "sampling", key: "workload", col: "check_cut", higher: true, tol: 0.05, unit: "x"},
	// Serve regressions worth catching (a lost cache hit path, admission
	// working before shedding, a serializing drain barrier) multiply
	// latency and move the median, which is stable within a few percent.
	// The p99 of a 48-request closed-loop scenario is its max sample,
	// whose noise on shared CI machines exceeds any useful tight bound,
	// so it gets only a multiplied-latency backstop.
	{mode: "serve-load", what: "serve p50 latency", baseline: "BENCH_serve.json",
		rows: "rows", key: "scenario", col: "p50_ms", tol: 0.10, unit: "ms"},
	{mode: "serve-load", what: "serve p99 latency", baseline: "BENCH_serve.json",
		rows: "rows", key: "scenario", col: "p99_ms", tol: 0.50, unit: "ms"},
	{mode: "obs", what: "geomean observability overhead",
		col: "geomean_overhead", tol: 0.15, unit: "%"},
	{mode: "obs", what: "serve-tier leave-on observability overhead",
		col: "serve_overhead", tol: 0.15, unit: "%"},
}

// gatesOf returns the gates of one mode.
func gatesOf(flag string) []gate {
	var gs []gate
	for _, g := range gates {
		if g.mode == flag {
			gs = append(gs, g)
		}
	}
	return gs
}

// checkGates holds a -quick report (its JSON encoding) to gs, printing
// one verdict line per gate and a FAIL line per regression, and
// returns an error when any gate failed. override, when set, replaces
// every relative gate's baseline file.
func checkGates(gs []gate, report []byte, override string) error {
	failed := 0
	for _, g := range gs {
		if err := g.check(report, override); err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench: FAIL:", err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(gs))
	}
	return nil
}

// check holds the report to g. A baseline that lacks a subset row fails.
func (g gate) check(report []byte, override string) error {
	cur, curHost, err := decodeReport(report)
	if err != nil {
		return err
	}
	var names []string
	if g.rows != "" {
		for _, row := range rowsOf(cur, g.rows) {
			names = append(names, str(row, g.key))
		}
	}
	got, _ := g.value(cur, names)
	if g.baseline == "" {
		fmt.Fprintf(os.Stderr, "gdsxbench: quick %s %s, limit %s (host: %v)\n",
			g.what, g.show(got), g.show(g.tol), curHost)
		if g.worse(got, g.tol) {
			return fmt.Errorf("%s %s exceeds the %s smoke budget", g.what, g.show(got), g.show(g.tol))
		}
		return nil
	}
	file := g.baseline
	if override != "" {
		file = override
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	base, baseHost, err := decodeReport(data)
	if err != nil {
		return fmt.Errorf("%s: %v", file, err)
	}
	want, ok := g.value(base, names)
	if !ok {
		return fmt.Errorf("%s lacks rows for the smoke subset %v", file, names)
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: quick %s %s vs checked-in %s (same subset;"+
		" host: %v vs checked-in %v)\n", g.what, g.show(got), g.show(want), curHost, baseHost)
	limit := want * (1 + g.tol)
	if g.higher {
		limit = want * (1 - g.tol)
	}
	if g.worse(got, limit) {
		return fmt.Errorf("%s regressed more than %.0f%% against %s", g.what, g.tol*100, file)
	}
	return nil
}

// worse reports whether v lies past limit in the regressing direction;
// a value exactly at the limit passes.
func (g gate) worse(v, limit float64) bool {
	if g.higher {
		return v < limit
	}
	return v > limit
}

// value computes the statistic over the named rows of a decoded report
// (a missing field reads as zero, as it would into the report type).
// It reports false when a name has no row.
func (g gate) value(rep map[string]any, names []string) (float64, bool) {
	if g.rows == "" {
		return num(rep, g.col), true
	}
	return bench.GeomeanOver(rowsOf(rep, g.rows),
		func(row map[string]any) string { return str(row, g.key) },
		func(row map[string]any) float64 { return num(row, g.col) }, names)
}

func (g gate) show(v float64) string {
	switch g.unit {
	case "%":
		return fmt.Sprintf("%.1f%%", v*100)
	case "ms":
		return fmt.Sprintf("%.1fms", v)
	}
	return fmt.Sprintf("%.2fx", v)
}

// decodeReport decodes a report's JSON generically, plus its host
// block (nil for a report written before reports recorded one).
func decodeReport(data []byte) (map[string]any, *bench.Host, error) {
	var rep map[string]any
	var hdr struct {
		Host *bench.Host `json:"host"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, nil, err
	}
	return rep, hdr.Host, nil
}

func rowsOf(rep map[string]any, key string) []map[string]any {
	arr, _ := rep[key].([]any)
	rows := make([]map[string]any, len(arr))
	for i, r := range arr {
		rows[i], _ = r.(map[string]any)
	}
	return rows
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

func str(m map[string]any, key string) string {
	s, _ := m[key].(string)
	return s
}
