package main

// Self-test of the benchmark: the tables agree with BENCHMARK.json, a
// minimal run of every workload prints every named metric with its
// unit, and a corrupted reference is caught. Run from this directory:
//
//	go test .
//
// It takes a few minutes (the batch workload always measures two
// passes); the first run also computes the reference outputs.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdsx/internal/workloads"
)

var testRefs = newRefStore(filepath.Join("..", ".bench_build", "refs"))

func minimalConfig(trace bool, out *bytes.Buffer) config {
	return config{seed: 7, seconds: 0, trace: trace, refs: testRefs, out: out}
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloadFuncs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadFuncs))
	}
	for _, w := range bj.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestMinimalRuns runs every workload at minimal length, untraced and
// traced, and checks the result is correct and every metric of the mode
// is printed with its unit.
func TestMinimalRuns(t *testing.T) {
	for _, name := range []string{"serve-warm", "serve-cold", "batch"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o, err := workloadFuncs[name](minimalConfig(trace, &out))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			r := result(o, trace, &out)
			if !r.Correct {
				t.Errorf("%s trace=%v: not correct: %v\n%s", name, trace, o.problems, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s", name, trace, d.name, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s trace=%v: %s not printed", name, trace, d.name)
				}
			}
		}
	}
}

// TestCorruptedReferenceCaught corrupts one program's reference and
// checks the benchmark counts every mismatch as a failure and refuses
// the result. dijkstra is not the batch warm-up program, so the
// mismatch reaches the measured passes.
func TestCorruptedReferenceCaught(t *testing.T) {
	src := workloads.Dijkstra().Source(workloads.BenchScale)
	good, err := testRefs.get("dijkstra", src)
	if err != nil {
		t.Fatal(err)
	}
	testRefs.put(src, good+"corrupted\n")
	defer testRefs.put(src, good)
	var out bytes.Buffer
	o, err := runBatch(minimalConfig(false, &out))
	if err != nil {
		t.Fatal(err)
	}
	r := result(o, false, &out)
	if r.Correct || r.Failed != 2 {
		t.Fatalf("corrupted dijkstra reference: correct=%v failed=%d, want false and 2 (one per pass)", r.Correct, r.Failed)
	}
	if !strings.Contains(out.String(), "dijkstra: expanded output differs from the reference") {
		t.Errorf("mismatch not reported:\n%s", out.String())
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 100}, {19, 100}, {20, 50}, {96, 89}, {900, 98}, {1200, 99}} {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.p)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.setRow("a")
	end := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(20 * time.Millisecond)
	inner()
	time.Sleep(10 * time.Millisecond)
	end()
	in, out := tr.self("inner", "a"), tr.self("outer", "a")
	if in < 20*time.Millisecond || out < 10*time.Millisecond || out >= in {
		t.Errorf("self times inner %v outer %v", in, out)
	}
	if tr.spans[0].dur != tr.self("outer", "a")+tr.self("inner", "a") {
		t.Errorf("self times do not add up to the root's duration")
	}
}
