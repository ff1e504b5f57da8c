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
// allocation failure mid-loop — the parallel-loop bounds, which each
// engine evaluates with its own closures, and the faults the compiler
// emits for nodes the tree-walker rejects at run time: a function name
// used as a value, and global initializers that divide by zero.
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
		{
			name: "func-as-value",
			src: `int f() { return 1; }
			int main() {
				f;
				return 0;
			}`,
			want: "func-as-value.c:3:5: runtime error: function f used as a value",
		},
		{
			// Sema admits only constant global initializers, but constant
			// folding must leave these to fault when the run starts.
			name: "global-div-zero",
			src: `int g = 1/0;
			int main() { return g; }`,
			want: "global-div-zero.c:1:10: runtime error: integer division by zero",
		},
		{
			name: "global-mod-zero",
			src: `int g = 1%0;
			int main() { return g; }`,
			want: "global-mod-zero.c:1:10: runtime error: integer modulo by zero",
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

// regionPromotionCases cover each class of scalar the optimizer keeps
// in registers inside a parallel region (body-declared locals, outer
// scalars the body only reads, the induction variable) next to the
// ones it must leave in memory (outer scalars the body writes).
var regionPromotionCases = []struct{ name, src string }{
	{
		// Body-declared int, long, double and pointer locals.
		name: "body-locals",
		src: `double out[64];
long lout[64];
int main() {
	int i;
	parallel for (i = 0; i < 64; i++) {
		int a = i * 3 + 1;
		long b = (long)a * 1000003L;
		double d = (double)b / 7.0;
		double *p = &out[i];
		*p = d + a;
		lout[i] = b - a;
	}
	double s = 0.0;
	long t = 0;
	for (i = 0; i < 64; i++) { s = s + out[i]; t = t + lout[i]; }
	print_double(s); print_char(' '); print_long(t); print_char('\n');
	return 0;
}`,
	},
	{
		// Outer int, long, double and pointer scalars the body only
		// reads, with parameters among them.
		name: "outer-readonly",
		src: `double out[48];
void fill(double *q, int k, int n) {
	long m = 1000000007L;
	double scale = 0.25;
	int i;
	parallel for (i = 0; i < n; i++) {
		q[i] = (double)((i * k) % m) * scale + (double)m;
	}
}
int main() {
	int i;
	fill(&out[0], 7, 48);
	double s = 0.0;
	for (i = 0; i < 48; i++) { s = s + out[i]; }
	print_double(s); print_char('\n');
	return 0;
}`,
	},
	{
		// The induction variable, read in the body and by sequential
		// code after the loop.
		name: "indvar",
		src: `int out[50];
int main() {
	int i;
	parallel for (i = 3; i < 50; i += 2) { out[i] = i * i - 1; }
	int last = i;
	long s = 0;
	for (i = 0; i < 50; i++) { s = s + out[i]; }
	print_int(last); print_char(' '); print_long(s); print_char('\n');
	return 0;
}`,
	},
	{
		// C89-style outer scalars used as the body's inner counter and
		// accumulator: the body writes them, so they stay in memory
		// (expansion gives each thread its own copy).
		name: "c89-counter",
		src: `long out[24];
int main() {
	int i; int j; long acc;
	parallel for (i = 0; i < 24; i++) {
		acc = 0;
		for (j = 0; j < 100; j++) { acc = acc + i * j; }
		out[i] = acc;
	}
	long s = 0;
	for (i = 0; i < 24; i++) { s = s + out[i]; }
	print_long(s); print_char('\n');
	return 0;
}`,
	},
	{
		// A nested sequential loop whose counter and accumulator the body
		// declares, under an induction variable the loop header declares.
		name: "nested-seq",
		src: `long out[32];
int main() {
	int n = 32;
	parallel for (int i = 0; i < n; i++) {
		long acc = 0;
		for (int j = 0; j <= i; j++) { acc = acc + (long)j * n; }
		out[i] = acc;
	}
	long s = 0;
	for (int k = 0; k < n; k++) { s = s + out[k]; }
	print_long(s); print_char('\n');
	return 0;
}`,
	},
	{
		// A DOACROSS loop: the ordered section writes the outer h, which
		// stays in memory, from a body-declared local and a read-only
		// outer multiplier.
		name: "doacross",
		src: `int main() {
	long h = 17;
	int mul = 31;
	int i;
	parallel doacross for (i = 0; i < 40; i++) {
		long v = (long)i * mul + 3;
		h = (h * mul + v) % 1000003;
	}
	print_long(h); print_char(' '); print_int(i); print_char('\n');
	return 0;
}`,
	},
}

// TestRegionPromotionParity runs the expanded regionPromotionCases
// under every engine, thread count and scheduler: the output must match
// the native sequential run, and the optimized engines must count the
// tree-walker's work ops exactly.
func TestRegionPromotionParity(t *testing.T) {
	for _, tc := range regionPromotionCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			xprog, want := expandForParity(t, tc.name, tc.src)
			for _, n := range parityThreads {
				for _, sc := range parityScheds {
					checkEngineParity(t, xprog, want, fmt.Sprintf("N=%d %s", n, sc.name),
						RunOptions{Threads: n, Sched: sc.pol})
				}
			}
		})
	}
	// Forced rollbacks of a region that runs three times, with a
	// read-only outer scalar that sequential code changes between
	// executions and an induction variable read after the loop. The
	// sequential re-execution after each rollback must leave the same
	// registers and memory as a clean run.
	t.Run("recover", func(t *testing.T) {
		t.Parallel()
		xprog, want := expandForParity(t, "rollback", `long out[32];
int main() {
	int r; int i;
	long scale = 3;
	for (r = 0; r < 3; r++) {
		parallel for (i = 0; i < 32; i++) {
			long a = (long)i * scale + r;
			out[i] = out[i] + a;
		}
		scale = scale + i;
	}
	long s = 0;
	for (i = 0; i < 32; i++) { s = s + out[i]; }
	print_long(s); print_char(' '); print_int(i); print_char(' '); print_long(scale); print_char('\n');
	return 0;
}`)
		for _, n := range []int{2, 4} {
			for _, sc := range parityScheds {
				res := checkEngineParity(t, xprog, want, fmt.Sprintf("N=%d %s", n, sc.name),
					RunOptions{Threads: n, Sched: sc.pol, Recover: &RecoverySpec{},
						FaultPlan: &FaultPlan{RollbackEvery: 2}})
				if len(res.Regions) != 1 || res.Regions[0].Rollbacks == 0 {
					t.Errorf("N=%d %s: no forced rollback recorded: %+v", n, sc.name, res.Regions)
				}
			}
		}
	})
}

// expandForParity compiles src, records its native sequential result
// and returns its compiled expansion.
func expandForParity(t *testing.T, name, src string) (*Program, Result) {
	t.Helper()
	prog, err := Compile(name+".c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := prog.Run(RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	tr, err := Transform(prog, TransformOptions{})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	xprog, err := Compile(name+"-x.c", tr.Source)
	if err != nil {
		t.Fatalf("compile expansion: %v", err)
	}
	return xprog, want
}

// checkEngineParity runs xprog with opts under each engine, requires
// the native output from every one and the tree-walker's CatWork from
// the compiled ones, and returns the optimized engine's result.
func checkEngineParity(t *testing.T, xprog *Program, want Result, label string, opts RunOptions) Result {
	t.Helper()
	results := map[string]Result{}
	for ename, eng := range parityEngines {
		o := opts
		o.Engine = eng
		res, err := xprog.Run(o)
		if err != nil {
			t.Fatalf("%s %s: %v", label, ename, err)
		}
		if res.Output != want.Output {
			t.Errorf("%s %s: output %q, want %q", label, ename, res.Output, want.Output)
		}
		results[ename] = res
	}
	ref := results["tree"].Counters[interp.CatWork]
	for _, ename := range []string{"noopt", "opt"} {
		if got := results[ename].Counters[interp.CatWork]; got != ref {
			t.Errorf("%s %s: work counter %d != tree %d", label, ename, got, ref)
		}
	}
	return results["opt"]
}
