package profile

import (
	"sort"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
	"gdsx/internal/workloads"
)

// benchServeKernel is the gdsxd serve-load kernel
// (internal/bench/serveload.go) with its request preamble at N = 48.
const benchServeKernel = `int N = 48;
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
	print_char('\n');
	return 0;
}
`

// BenchmarkProfileLoop profiles every parallel loop of a program per
// iteration and reports the profiler's cost per profiled memory access.
func BenchmarkProfileLoop(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"mpeg2-encoder", workloads.MPEG2Enc().Source(workloads.ProfileScale)},
		{"serve-kernel-48", benchServeKernel},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prog, err := parser.Parse(bc.name+".c", bc.src)
			if err != nil {
				b.Fatal(err)
			}
			info, err := sema.Check(prog)
			if err != nil {
				b.Fatal(err)
			}
			var loops []int
			for id, l := range info.Loops {
				if l.Par != ast.Sequential {
					loops = append(loops, id)
				}
			}
			sort.Ints(loops)
			b.ResetTimer()
			var memops int64
			for i := 0; i < b.N; i++ {
				for _, id := range loops {
					res, err := Loop(prog, info, id, interp.Options{})
					if err != nil {
						b.Fatal(err)
					}
					memops += res.Run.MemOps
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(memops), "ns/memop")
		})
	}
}
