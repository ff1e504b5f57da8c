package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gdsx/internal/bench"
)

// TestBenchSchemaRoundTrip decodes every checked-in BENCH file into its
// report type, rejecting unknown fields, and checks that re-encoding
// keeps every key the file has: a renamed or dropped field would orphan
// the checked-in baselines the gates read.
func TestBenchSchemaRoundTrip(t *testing.T) {
	for file, rep := range map[string]any{
		"BENCH_adapt.json":    &bench.AdaptReport{},
		"BENCH_engine.json":   &bench.EngineReport{},
		"BENCH_guard.json":    &bench.GuardReport{},
		"BENCH_obs.json":      &bench.ObsReport{},
		"BENCH_opt.json":      &bench.OptReport{},
		"BENCH_recovery.json": &bench.RecoveryReport{},
		"BENCH_sched.json":    &bench.SchedReport{},
		"BENCH_serve.json":    &bench.ServeLoadReport{},
	} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(rep); err != nil {
				t.Fatalf("decode: %v", err)
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var orig, back any
			if err := json.Unmarshal(data, &orig); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(out, &back); err != nil {
				t.Fatal(err)
			}
			missingKeys(t, "", orig, back)
		})
	}
}

// missingKeys reports every object key under orig that back lacks.
func missingKeys(t *testing.T, path string, orig, back any) {
	t.Helper()
	switch o := orig.(type) {
	case map[string]any:
		b, _ := back.(map[string]any)
		for k, v := range o {
			bv, ok := b[k]
			if !ok {
				t.Errorf("key %s.%s lost in the round trip", path, k)
				continue
			}
			missingKeys(t, path+"."+k, v, bv)
		}
	case []any:
		b, _ := back.([]any)
		if len(b) != len(o) {
			t.Errorf("%s: %d elements after the round trip, want %d", path, len(b), len(o))
			return
		}
		for i := range o {
			missingKeys(t, path+"["+strconv.Itoa(i)+"]", o[i], b[i])
		}
	}
}
