package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdsx/internal/bench"
)

// gateCase is one -quick report held to the gates of its mode: base is
// the baseline report (nil for a mode whose gates are absolute).
type gateCase struct {
	name string
	mode string
	cur  any
	base any
	pass bool
}

// gateCases builds, for every gate, a report exactly at its limit
// (passes), one just past it in the failing direction (fails), one
// just short of it (passes), and a baseline that lacks one of the
// report's subset rows (fails). The subset is two rows holding the
// same value, whose geomean is that value exactly; baseline rows hold
// 1, so a relative limit equals the gate's factor.
func gateCases() []gateCase {
	const eps = 1e-9
	subset := []string{"b", "c"}
	opt := func(v float64, names []string) any {
		r := &bench.OptReport{Geomean: v}
		for _, n := range names {
			r.Rows = append(r.Rows, bench.OptRow{Workload: n, Speedup: v})
		}
		return r
	}
	guard := func(v float64, names []string) any {
		r := &bench.GuardReport{Geomean: v}
		for _, n := range names {
			r.Rows = append(r.Rows, bench.GuardRow{Workload: n, Overhead: v})
		}
		return r
	}
	adapt := func(v float64, names []string) any {
		r := &bench.AdaptReport{SampleGeomean: v}
		for _, n := range names {
			r.Sampling = append(r.Sampling, bench.AdaptSampleRow{Workload: n, CheckCut: v})
		}
		return r
	}
	serveRows := func(p50, p99 float64, names []string) *bench.ServeLoadReport {
		r := &bench.ServeLoadReport{P99Geomean: p99}
		for _, n := range names {
			r.Rows = append(r.Rows, bench.ServeLoadRow{Scenario: n, P50Ms: p50, P99Ms: p99})
		}
		return r
	}
	p50 := func(v float64, names []string) any { return serveRows(v, 1, names) }
	p99 := func(v float64, names []string) any { return serveRows(1, v, names) }

	type relative struct {
		name   string
		mode   string
		factor float64 // limit as a multiple of the baseline
		higher bool
		build  func(v float64, names []string) any
	}
	var cases []gateCase
	for _, g := range []relative{
		{"opt", "bench-opt", 0.95, true, opt},
		{"guard", "guard", 1.05, false, guard},
		{"adapt", "adapt", 0.95, true, adapt},
		{"serve-p50", "serve-load", 1.10, false, p50},
		{"serve-p99", "serve-load", 1.50, false, p99},
	} {
		past, short := g.factor*(1+eps), g.factor*(1-eps)
		if g.higher {
			past, short = short, past
		}
		base := g.build(1, []string{"a", "b", "c"})
		cases = append(cases,
			gateCase{g.name + "/at-limit", g.mode, g.build(g.factor, subset), base, true},
			gateCase{g.name + "/past-limit", g.mode, g.build(past, subset), base, false},
			gateCase{g.name + "/short-of-limit", g.mode, g.build(short, subset), base, true},
			gateCase{g.name + "/baseline-lacks-row", g.mode, g.build(1, subset),
				g.build(1, []string{"a", "b"}), false},
		)
	}
	for _, g := range []struct {
		name  string
		build func(float64) any
	}{
		{"obs-runtime", func(v float64) any { return &bench.ObsReport{GeomeanOverhead: v} }},
		{"obs-serve", func(v float64) any { return &bench.ObsReport{ServeOverhead: v} }},
	} {
		cases = append(cases,
			gateCase{g.name + "/at-limit", "obs", g.build(0.15), nil, true},
			gateCase{g.name + "/past-limit", "obs", g.build(0.15 * (1 + eps)), nil, false},
			gateCase{g.name + "/short-of-limit", "obs", g.build(0.15 * (1 - eps)), nil, true},
		)
	}
	return cases
}

func TestGates(t *testing.T) {
	dir := t.TempDir()
	for _, c := range gateCases() {
		t.Run(c.name, func(t *testing.T) {
			cur, err := json.Marshal(c.cur)
			if err != nil {
				t.Fatal(err)
			}
			override := ""
			if c.base != nil {
				data, err := json.Marshal(c.base)
				if err != nil {
					t.Fatal(err)
				}
				override = filepath.Join(dir, strings.ReplaceAll(c.name, "/", "_")+".json")
				if err := os.WriteFile(override, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			gs := gatesOf(c.mode)
			if len(gs) == 0 {
				t.Fatalf("no gates for mode %q", c.mode)
			}
			err = checkGates(gs, cur, override)
			if pass := err == nil; pass != c.pass {
				t.Errorf("pass = %v, want %v (err: %v)", pass, c.pass, err)
			}
		})
	}
}

// TestGateModes checks that every gate belongs to a mode and that every
// relative gate's default baseline is that mode's checked-in file.
func TestGateModes(t *testing.T) {
	for _, g := range gates {
		i := -1
		for j, m := range modes {
			if m.flag == g.mode {
				i = j
			}
		}
		if i < 0 {
			t.Errorf("gate %q: no mode %q", g.what, g.mode)
			continue
		}
		if g.baseline != "" && g.baseline != modes[i].out {
			t.Errorf("gate %q: baseline %s, mode writes %s", g.what, g.baseline, modes[i].out)
		}
	}
}
