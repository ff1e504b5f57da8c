package bench

import (
	"fmt"
	"testing"

	"gdsx"
)

// BenchmarkRegionPromotion times the expanded serve kernel at N = 48,
// the gdsxd request workload, at 1 and 2 threads with the optimization
// pipeline off and on. It measures how much of the optimizer's gain
// survives inside a parallel region, where each worker runs the body
// on its own copy of the spawning frame's registers:
//
//	go test ./internal/bench -run '^$' -bench RegionPromotion -count 5
//
// Every run reuses one simulated memory, Reset in between, as gdsxd's
// memory pool does.
func BenchmarkRegionPromotion(b *testing.B) {
	const input = "int N = 48;"
	prog, err := gdsx.Compile("serve.c", input+serveKernel)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		b.Fatal(err)
	}
	xprog, err := gdsx.Compile("serve-x.c", tr.Source)
	if err != nil {
		b.Fatal(err)
	}
	m := gdsx.NewMemory(0)
	for _, threads := range []int{1, 2} {
		for _, eng := range []gdsx.Engine{gdsx.EngineCompiledNoOpt, gdsx.EngineCompiled} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, eng), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Reset()
					if _, err := xprog.Run(gdsx.RunOptions{Threads: threads, Engine: eng, Memory: m}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
