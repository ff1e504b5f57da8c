package gdsx

// Differential parity for the compiled engine's optimization pipeline.
// TestOptEngineParity is the CI gate (`go test -run Parity -race`): for
// every workload it runs the expanded program under the tree-walker,
// the unoptimized compiled engine and the optimized compiled engine,
// and requires identical program output, exit codes and instruction
// counters; a second phase checks that runtime faults — null
// dereference, operation-budget exhaustion, injected allocation
// failure — surface identically (same error text, same failure site)
// whether or not the optimizer rewrote the faulting code.

import (
	"fmt"
	"strings"
	"testing"

	"gdsx/internal/interp"
	"gdsx/internal/workloads"
)

var parityEngines = map[string]Engine{
	"tree":  EngineTree,
	"noopt": EngineCompiledNoOpt,
	"opt":   EngineCompiled,
}

func TestOptEngineParity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			src := w.Source(workloads.Test)
			prog, err := Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			for _, n := range []int{1, 2, 4} {
				results := map[string]Result{}
				for ename, eng := range parityEngines {
					res, rerr := RunSource(w.Name+".c", tr.Source,
						RunOptions{Threads: n, Engine: eng})
					if rerr != nil {
						t.Fatalf("N=%d %s: %v", n, ename, rerr)
					}
					results[ename] = res
				}
				ref := results["tree"]
				for _, ename := range []string{"noopt", "opt"} {
					res := results[ename]
					label := fmt.Sprintf("N=%d %s", n, ename)
					if res.Output != ref.Output {
						t.Errorf("%s: output diverges from tree (%d vs %d bytes)",
							label, len(res.Output), len(ref.Output))
					}
					if res.Exit != ref.Exit {
						t.Errorf("%s: exit %d != %d", label, res.Exit, ref.Exit)
					}
					if res.Counters[interp.CatWork] != ref.Counters[interp.CatWork] {
						t.Errorf("%s: work counter %d != %d", label,
							res.Counters[interp.CatWork], ref.Counters[interp.CatWork])
					}
					if res.Counters[interp.CatSync] != ref.Counters[interp.CatSync] {
						t.Errorf("%s: sync counter %d != %d", label,
							res.Counters[interp.CatSync], ref.Counters[interp.CatSync])
					}
					if n == 1 && res.Counters[interp.CatWait] != ref.Counters[interp.CatWait] {
						t.Errorf("%s: wait counter %d != %d", label,
							res.Counters[interp.CatWait], ref.Counters[interp.CatWait])
					}
				}
			}
		})
	}
}

// TestOptEngineFaultParity requires the optimizer to preserve fault
// behavior exactly: the same runtime error, with the same source
// position and message, from all three engines. The cases hit the
// paths the optimizer rewrites — promoted scalars around a faulting
// access, a fused loop condition driving a budget fault, and an
// allocation failure mid-loop — and the parallel-loop bounds, which
// each engine evaluates with its own closures.
func TestOptEngineFaultParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts RunOptions
		want string // when set, the error every engine must end in
	}{
		{
			// The faulting dereference sits between reads and writes of
			// promoted locals.
			name: "null-deref",
			src: `int main() {
				int a = 3;
				int *p = (int *)0;
				a = a + 1;
				return a + *p;
			}`,
		},
		{
			// A fused compare-and-branch back-edge drives the counter into
			// the budget; the fault must fire after the identical op count.
			name: "budget",
			src: `int main() {
				int i; int s;
				s = 0;
				for (i = 0; i < 1000000; i++) { s = s + i; }
				return s;
			}`,
			opts: RunOptions{MaxOps: 5000},
		},
		{
			// The nth allocation fails while promoted scalars carry loop
			// state.
			name: "failed-alloc",
			src: `int main() {
				int i; long total;
				total = 0;
				for (i = 0; i < 10; i++) {
					int *p = (int *)malloc(64);
					p[0] = i;
					total = total + p[0];
				}
				return (int)total;
			}`,
			opts: RunOptions{FailAlloc: 4},
		},
		{
			// Out-of-bounds past the simulated capacity through a promoted
			// pointer.
			name: "oob",
			src: `int main() {
				long big = 1024L * 1024L * 1024L;
				int *p = (int *)(big * 64L);
				return *p;
			}`,
		},
		{
			// Parallel-loop bounds are evaluated by each engine's own
			// closures; a header the runtime cannot partition must fault
			// identically in all three.
			name: "par-zero-step",
			src: `int a[8];
			int main() {
				int i; int k;
				k = 0;
				parallel for (i = 0; i < 8; i += k) { a[i] = i; }
				return 0;
			}`,
			opts: RunOptions{Threads: 2},
			want: "parallel loop has zero step",
		},
		{
			name: "par-mul-step",
			src: `int a[8];
			int main() {
				int i;
				parallel for (i = 1; i < 8; i = i * 2) { a[i] = i; }
				return 0;
			}`,
			opts: RunOptions{Threads: 2},
			want: "unsupported parallel loop step",
		},
		{
			name: "par-cond-not-indvar",
			src: `int a[8];
			int main() {
				int i; int j;
				j = 0;
				parallel for (i = 0; j < 8; i++) { a[i] = i; }
				return 0;
			}`,
			opts: RunOptions{Threads: 2},
			want: "parallel loop condition does not test the induction variable",
		},
		{
			name: "par-bound-div-zero",
			src: `int a[8];
			int main() {
				int i; int z;
				z = 0;
				parallel for (i = 0; i < 8 / z; i++) { a[i] = i; }
				return 0;
			}`,
			opts: RunOptions{Threads: 2},
			want: "par-bound-div-zero.c:5:32: runtime error: integer division by zero",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := map[string]string{}
			for ename, eng := range parityEngines {
				o := tc.opts
				o.Engine = eng
				_, rerr := RunSource(tc.name+".c", tc.src, o)
				if rerr == nil {
					t.Fatalf("%s: expected a runtime error", ename)
				}
				errs[ename] = rerr.Error()
				if !strings.HasSuffix(errs[ename], tc.want) {
					t.Errorf("%s: error %q does not end in %q", ename, errs[ename], tc.want)
				}
			}
			for _, ename := range []string{"noopt", "opt"} {
				if errs[ename] != errs["tree"] {
					t.Errorf("%s fault diverges:\ntree:  %s\n%s: %s",
						ename, errs["tree"], ename, errs[ename])
				}
			}
		})
	}
}
