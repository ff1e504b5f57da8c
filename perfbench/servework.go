package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

// The serve workloads drive an in-process gdsxd over loopback HTTP from
// a closed loop of clients: gdsxd callers block on their output, so
// each client sends its next request only when the previous one has
// answered. Both use the same server and clients; they differ in
// whether the transform cache can answer.
//
//   - serve-warm: every request is a key built and harvested during
//     set-up, so the cache hit rate is 1 and the request path (admission,
//     cache lookup, pooled memory, recovered execution, guard, sampling,
//     response encoding) is all that runs.
//   - serve-cold: every request carries a fresh cache key, so each pays
//     for frontend, profiling, expansion, recompilation and the first
//     run's hot-site harvest on the same request path.

// Rounds per second of --seconds. A serve-warm round (15 requests)
// takes about a quarter second on the reference host, so serve-warm
// measures for about --seconds. A serve-cold round (8 builds, one of
// them mpeg2-encoder's) takes about two seconds, and serve-cold measures
// longer: at the 15 seconds BENCHMARK.json gives, its 12 rounds (about
// 24 s) steady the median, and put the tail percentile (p89 of 96)
// inside the mpeg2-encoder requests rather than on the edge between
// them and the next slowest kind.
const (
	warmRoundsPerSecond = 4
	coldRoundsPerSecond = 0.8
)

func serveRounds(cfg config, cold bool) int {
	if cold {
		return work(cfg.seconds, coldRoundsPerSecond)
	}
	return work(cfg.seconds, warmRoundsPerSecond)
}

// clients is the closed loop's client count: one per CPU of the 2-vCPU
// host the benchmark was sized on, so the load generator never
// outnumbers the server's execution slots.
const clients = 2

// kernelInner is the serve kernel's inner trip count.
const kernelInner = 3000

// serveKernel is gdsxd's load kernel: enough parallel compute to make
// admission contention real, with N supplied by the request's input
// preamble so one kernel text yields several cache keys.
const serveKernel = `
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

// warmKernelN are the kernel sizes serve-warm requests.
var warmKernelN = []int64{32, 40, 48, 56}

// warmGuarded are the request kinds serve-warm also sends guarded: 3
// of its 15 kinds, so one request in five runs under the guard.
var warmGuarded = []string{"kernel-48", "dijkstra", "470.lbm"}

// reqKind is one kind of request a serve workload sends.
type reqKind struct {
	name   string
	source string
	input  string // the kernel's N preamble; serve-cold adds a salt per request
	guard  bool
	ref    string
}

// body is the /run request for the kind with the given input preamble.
// Every request runs on two threads.
func (k *reqKind) body(input string) []byte {
	b, err := json.Marshal(serve.Request{
		Source:  k.source,
		Input:   input,
		Options: serve.Options{Threads: 2, Guard: k.guard},
	})
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return b
}

// testPrograms are the eight Table 4 programs at Test scale.
func testPrograms(refs *refStore) ([]*reqKind, error) {
	var kinds []*reqKind
	for _, w := range workloads.All() {
		src := w.Source(workloads.Test)
		ref, err := refs.get(w.Name, src)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, &reqKind{name: w.Name, source: src, ref: ref})
	}
	return kinds, nil
}

func serveKinds(refs *refStore, cold bool) ([]*reqKind, error) {
	progs, err := testPrograms(refs)
	if err != nil || cold {
		return progs, err
	}
	var kinds []*reqKind
	for _, n := range warmKernelN {
		kinds = append(kinds, &reqKind{
			name: fmt.Sprintf("kernel-%d", n), source: serveKernel,
			input: fmt.Sprintf("int N = %d;", n), ref: kernelRef(n),
		})
	}
	kinds = append(kinds, progs...)
	for _, name := range warmGuarded {
		for _, k := range kinds {
			if k.name == name {
				g := *k
				g.name, g.guard = name+"+guard", true
				kinds = append(kinds, &g)
				break
			}
		}
	}
	return kinds, nil
}

// salt is serve-cold's preamble: an unused global whose seed-derived
// value makes every request's cache key new without changing its
// output.
func salt(base int64, i int) string {
	return fmt.Sprintf("int gdsxbench_salt = %d;", base+int64(i))
}

// sched hands out request indices in rounds: each round is a seeded
// permutation of the kinds, so every round sends the workload's exact
// mix and the seed decides only the order.
type sched struct {
	mu     sync.Mutex
	rng    *rand.Rand
	nkinds int
	rounds int
	order  []int
	next   int
	starts []time.Time // when each round's first request was taken
}

func (s *sched) take() (idx, kind int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if n == s.rounds*s.nkinds {
		return -1, -1
	}
	if n%s.nkinds == 0 {
		s.order = append(s.order, s.rng.Perm(s.nkinds)...)
		s.starts = append(s.starts, time.Now())
	}
	s.next++
	return n, s.order[n]
}

// sample is one measured request.
type sample struct {
	kind int
	rep  reply
	err  error
}

// phase is one closed-loop measurement against a live server.
type phase struct {
	samples       []sample
	bounds        []time.Time // round starts, then the phase's end
	before, after promSnap
	tracers       []*tracer
}

// check says why a reply is wrong, or returns nil.
func check(k *reqKind, s sample, cold bool) error {
	switch {
	case s.err != nil:
		return s.err
	case s.rep.status != 200:
		return fmt.Errorf("%s: status %d", k.name, s.rep.status)
	case s.rep.resp.Output != k.ref:
		return fmt.Errorf("%s: output differs from the reference", k.name)
	case s.rep.resp.CacheHit == cold:
		return fmt.Errorf("%s: cache_hit %v on %s traffic", k.name, s.rep.resp.CacheHit, map[bool]string{true: "cold", false: "warm"}[cold])
	}
	return nil
}

// runPhase runs the closed loop of conc clients for the given number of
// rounds and scrapes /metrics around it. With traced set, each client
// records spans.
func runPhase(ls *liveServer, kinds []*reqKind, cold bool, rng *rand.Rand, saltBase int64, rounds, conc int, traced bool) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = ls.scrape(); err != nil {
		return nil, err
	}
	s := &sched{rng: rng, nkinds: len(kinds), rounds: rounds}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		var t *tracer
		if traced {
			t = &tracer{}
			ph.tracers = append(ph.tracers, t)
		}
		wg.Add(1)
		go func(t *tracer) {
			defer wg.Done()
			for {
				i, ki := s.take()
				if i < 0 {
					return
				}
				k := kinds[ki]
				input := k.input
				if cold {
					input = salt(saltBase, i)
				}
				t.setRow(k.name)
				end := t.begin("request")
				endEnc := t.begin("client.encode")
				body := k.body(input)
				endEnc()
				rep, err := ls.post(t, body)
				end()
				mu.Lock()
				ph.samples = append(ph.samples, sample{kind: ki, rep: rep, err: err})
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	ph.bounds = append(s.starts, time.Now())
	if ph.after, err = ls.scrape(); err != nil {
		return nil, err
	}
	return ph, nil
}

// setupServe starts a server and readies it for the workload.
// serve-warm sends every kind once, one request at a time, so every key
// is built (and each unguarded one harvested) without another build
// contending for the CPU; the server's build histogram then gives the
// warm workload's transform_s. serve-cold sends one round from both
// clients on keys the measurement never uses (negative salts), so
// pooled arenas, first-use paths and the heap are at their working size
// before measuring. It returns the set-up time and the set-up's build
// time.
func setupServe(kinds []*reqKind, cold bool) (*liveServer, time.Duration, float64, error) {
	t0 := time.Now()
	ls, err := startServer(clients)
	if err != nil {
		return nil, 0, 0, err
	}
	conc := 1
	if cold {
		conc = clients
	}
	ph, err := runPhase(ls, kinds, cold, rand.New(rand.NewSource(0)), -1<<20, 1, conc, false)
	d := time.Since(t0)
	if err == nil {
		for _, s := range ph.samples {
			if err = check(kinds[s.kind], s, true); err != nil {
				err = fmt.Errorf("set-up request: %w", err)
				break
			}
		}
	}
	if err != nil {
		ls.close()
		return nil, 0, 0, err
	}
	return ls, d, ph.after["gdsx_serve_build_us_sum"] / 1e6, nil
}

// stopServer drains the server and checks the goroutine count returns
// to what it was before the first server started.
func stopServer(ls *liveServer, baseline int, o *outcome) {
	if err := ls.close(); err != nil {
		o.problem("server drain: %v", err)
	}
	if err := waitGoroutines(baseline); err != nil {
		o.problem("%v", err)
	}
}

func runServe(cfg config, cold bool) (*outcome, error) {
	kinds, err := serveKinds(cfg.refs, cold)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}}
	baseline := runtime.NumGoroutine()
	var ls *liveServer
	var setups, builds []float64
	for r := 0; r < cfg.setups(); r++ {
		if ls != nil {
			stopServer(ls, baseline, o)
		}
		var d time.Duration
		var b float64
		if ls, d, b, err = setupServe(kinds, cold); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		builds = append(builds, b)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	saltBase := rng.Int63n(1 << 30)
	if cfg.trace {
		err := serveLedger(cfg, ls, kinds, cold, rng, saltBase, o)
		stopServer(ls, baseline, o)
		return o, err
	}

	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	ph, err := runPhase(ls, kinds, cold, rng, saltBase, serveRounds(cfg, cold), clients, false)
	rss.finish()
	stopServer(ls, baseline, o)
	if err != nil {
		return nil, err
	}
	lats := account(cfg, kinds, cold, ph, o)
	d := ph.after.delta(ph.before)
	checkHitFrac(o, d, cold)
	rounds := float64(len(ph.samples)) / float64(len(kinds))
	wall := ph.bounds[len(ph.bounds)-1].Sub(ph.bounds[0]).Seconds()
	p := tailPercentile(len(lats))
	o.values["setup_s"] = median(setups)
	if cold {
		o.values["transform_s"] = d["gdsx_serve_build_us_sum"] / 1e6 / rounds
	} else {
		o.values["transform_s"] = median(builds)
	}
	o.values["run_s"] = d["gdsx_serve_exec_us_sum"] / 1e6 / rounds
	o.values["p50_ms"] = median(lats)
	o.values["tail_ms"] = quantile(lats, float64(p)/100)
	o.values["rps"] = float64(len(lats)) / wall
	o.values["peak_rss_mb"] = rss.medianPeak(ph.bounds)
	fmt.Fprintf(cfg.out, "requests %d in %.0f rounds over %.2fs, tail_ms is p%d of %d, setup_s over %d set-ups\n",
		len(ph.samples), rounds, wall, p, len(lats), len(setups))
	return o, nil
}

// account checks every reply, counts attempts and failures, prints the
// per-kind latency table and returns the successful latencies in ms.
func account(cfg config, kinds []*reqKind, cold bool, ph *phase, o *outcome) []float64 {
	var lats []float64
	byKind := map[string][]float64{}
	for _, s := range ph.samples {
		k := kinds[s.kind]
		o.attempted++
		if err := check(k, s, cold); err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "request FAILED: %v\n", err)
			continue
		}
		lats = append(lats, ms(s.rep.lat))
		byKind[k.name] = append(byKind[k.name], ms(s.rep.lat))
	}
	names := make([]string, 0, len(byKind))
	for n := range byKind {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.out, "%-18s %6s %10s %10s\n", "kind", "n", "p50_ms", "max_ms")
	for _, n := range names {
		xs := byKind[n]
		fmt.Fprintf(cfg.out, "%-18s %6d %10.2f %10.2f\n", n, len(xs), median(xs), quantile(xs, 1))
	}
	return lats
}

// checkHitFrac checks the workload is what it claims: every warm
// request a cache hit, every cold one a miss.
func checkHitFrac(o *outcome, d promSnap, cold bool) float64 {
	hits, misses := d["gdsx_serve_cache_hits_total"], d["gdsx_serve_cache_misses_total"]
	f := ratio(hits, hits+misses)
	want := 1.0
	if cold {
		want = 0
	}
	if f != want || hits+misses == 0 {
		o.problem("cache hit fraction %.3f (%v hits, %v misses), want %v", f, hits, misses, want)
	}
	return f
}
