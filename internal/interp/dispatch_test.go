package interp

import (
	"fmt"
	"sync"
	"testing"
)

// TestDispatchInvariants drives the one iteration executor through
// every claimer: each scheduling policy, for DOALL, DOACROSS and
// DOACROSS with ordered sections, at thread counts and trip counts
// around the partition edges. Every iteration must run exactly once,
// each thread's iterations must strictly increase (guard replay
// serializes same-thread accesses in that order), the induction
// variable must end at its sequential value, and an ordered section
// must see the iterations in sequential order.
func TestDispatchInvariants(t *testing.T) {
	kinds := []struct {
		name, loop, body string
	}{
		{"doall", "parallel for", "a[(i - 5) / 2] = i;"},
		{"doacross", "parallel doacross for", "a[(i - 5) / 2] = i;"},
		{"ordered", "parallel doacross for", "__sync_wait(); s = (s * 31 + i) % 1000003; __sync_post();"},
	}
	policies := []SchedPolicy{SchedStealing, SchedStatic, SchedDynamic}
	engines := []Engine{EngineCompiled, EngineTree}
	for _, nt := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, nt - 1, nt, nt + 1, 8*nt + 3} {
			// Sequential values: i steps by 2 from 5; s folds the
			// iterations in order.
			wantI, wantS := 5+2*n, 0
			for k := 0; k < n; k++ {
				wantS = (wantS*31 + 5 + 2*k) % 1000003
			}
			for _, kind := range kinds {
				src := fmt.Sprintf(`int a[80];
int main() {
    int i; int s;
    s = 0;
    %s (i = 5; i < 5 + 2 * %d; i += 2) { %s }
    print_int(i); print_char(' '); print_int(s);
    return 0;
}`, kind.loop, n, kind.body)
				want := fmt.Sprintf("%d 0", wantI)
				if kind.name == "ordered" {
					want = fmt.Sprintf("%d %d", wantI, wantS)
				}
				for _, pol := range policies {
					for _, eng := range engines {
						label := fmt.Sprintf("%s/%s/%s/nt=%d/n=%d", kind.name, pol, eng, nt, n)
						var mu sync.Mutex
						perThread := make([][]int64, nt)
						hooks := &Hooks{IterStart: func(_ int, k int64, tid int) {
							mu.Lock()
							perThread[tid] = append(perThread[tid], k)
							mu.Unlock()
						}}
						res := run(t, src, Options{NumThreads: nt, Sched: pol, Engine: eng, Hooks: hooks})
						if res.Output != want {
							t.Errorf("%s: output %q, want %q", label, res.Output, want)
						}
						runs := make([]int, n)
						for tid, ks := range perThread {
							for j, k := range ks {
								if k < 0 || k >= int64(n) {
									t.Errorf("%s: thread %d ran iteration %d outside [0, %d)", label, tid, k, n)
									continue
								}
								runs[k]++
								if j > 0 && k <= ks[j-1] {
									t.Errorf("%s: thread %d ran iteration %d after %d", label, tid, k, ks[j-1])
								}
							}
						}
						for k, c := range runs {
							if c != 1 {
								t.Errorf("%s: iteration %d ran %d times", label, k, c)
							}
						}
						if t.Failed() {
							t.FailNow()
						}
					}
				}
			}
		}
	}
}
