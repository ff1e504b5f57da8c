package interp

import (
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// promotedIn compiles src's promotion decision for main under opts and
// reports, by name, whether each local and parameter of main is
// promoted. Names must be unique within main.
func promotedIn(t *testing.T, src string, opts Options) map[string]bool {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	opts.MemSize = 1 << 20
	m := New(prog, info, opts)
	for _, fn := range prog.Funcs() {
		if fn.Name != "main" {
			continue
		}
		c := &compiler{m: m, opt: newOptConfig(m)}
		slots := c.promotableSlots(fn)
		got := map[string]bool{}
		note := func(sym *ast.Symbol) {
			got[sym.Name] = slots != nil && slots[sym.Index]
		}
		for _, p := range fn.Params {
			note(p.Sym)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.VarDecl); ok {
				note(d.Sym)
			}
			return true
		})
		return got
	}
	t.Fatal("no main")
	return nil
}

// TestPromotableSlotsParallel pins the three slot classes of a
// parallel region: body-declared locals, outer scalars the body only
// reads and the induction variable are promoted; an outer scalar the
// body writes, the induction variable included, stays in memory.
func TestPromotableSlotsParallel(t *testing.T) {
	// The serve kernel of internal/bench/serveload.go at N = 48.
	const serve = `int N = 48;
int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		int j;
		for (j = 0; j < 3000; j++) { acc = acc + (long)i * j; }
		out[i] = acc;
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	return 0;
}`
	// sum is assigned, k stepped and tot compound-assigned in the body;
	// i is written by the body; c (C89-style counter) is an outer scalar
	// the body's inner loop writes.
	const written = `int a[64];
int main() {
	int i; int c; int sum; int k; long tot; int n;
	sum = 0; k = 0; tot = 0; n = 64;
	parallel for (i = 0; i < n; i++) {
		for (c = 0; c < 2; c++) { a[i] = a[i] + c; }
		sum = a[i];
		k++;
		tot += sum;
		if (a[i] < 0) { i = i + 1; }
	}
	return sum + k + (int)tot;
}`
	cases := []struct {
		name string
		src  string
		opts Options
		want map[string]bool
	}{
		{"serve", serve, Options{NumThreads: 2},
			map[string]bool{"acc": true, "j": true, "i": true, "out": true, "s": true}},
		{"written", written, Options{NumThreads: 2},
			map[string]bool{"i": false, "c": false, "sum": false, "k": false, "tot": false, "n": true}},
		{"written-single", written, Options{NumThreads: 1, ParallelizeSingle: true},
			map[string]bool{"i": false, "c": false, "sum": false, "k": false, "tot": false, "n": true}},
		// Without the parallel machinery every loop runs sequentially
		// and nothing is demoted.
		{"written-1t", written, Options{NumThreads: 1},
			map[string]bool{"i": true, "c": true, "sum": true, "k": true, "tot": true, "n": true}},
		{"written-forceseq", written, Options{NumThreads: 2, ForceSequential: true},
			map[string]bool{"i": true, "c": true, "sum": true, "k": true, "tot": true, "n": true}},
	}
	for _, tc := range cases {
		got := promotedIn(t, tc.src, tc.opts)
		for name, want := range tc.want {
			if p, ok := got[name]; !ok {
				t.Errorf("%s: no local %s", tc.name, name)
			} else if p != want {
				t.Errorf("%s: %s promoted = %v, want %v", tc.name, name, p, want)
			}
		}
	}
}
