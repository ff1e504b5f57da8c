package bench

// Serve-load: a closed-loop load harness for the gdsxd service layer.
// Unlike the other bench modes, the object under test is not a kernel
// but the whole request path — admission, cache, pooled memory, the
// shed ladder, recovered execution — so the harness drives an
// in-process HTTP server with concurrent clients and reports latency
// quantiles, throughput, shed rate and cache hit rate per scenario.
// Latencies are host wall-clock: absolute numbers vary by machine, and
// the CI gate compares quick runs against the checked-in
// BENCH_serve.json — p50 with a 10% allowance (stable under load), p99
// with a 50% allowance (a max-of-48-samples statistic whose run-to-run
// noise exceeds any tighter threshold; what it must catch is the
// latency multiplying).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"gdsx/internal/obs"
	"gdsx/internal/serve"
	"gdsx/internal/serve/chaos"
)

// serveKernel is the request workload: enough parallel compute to make
// admission contention real, small enough that a scenario finishes in
// seconds. The N declaration arrives via the request's input preamble,
// so scenarios can vary the cache key without editing the kernel.
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

// ServeLoadRow is one scenario's aggregate measurement.
type ServeLoadRow struct {
	Scenario     string  `json:"scenario"`
	Clients      int     `json:"clients"`
	Requests     int64   `json:"requests"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed"`   // 429s: queue_full + rate_limited
	Failed       int64   `json:"failed"` // structured non-200, non-429
	ReqPerSec    float64 `json:"req_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	ShedRate     float64 `json:"shed_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ServeLoadReport is the full serve-load measurement, serialized to
// BENCH_serve.json by gdsxbench -serve-load.
type ServeLoadReport struct {
	GoVersion string         `json:"go_version"`
	Host      *Host          `json:"host,omitempty"`
	Rows      []ServeLoadRow `json:"rows"`
	// P99Geomean aggregates the scenarios' p99 latencies (ms).
	P99Geomean float64 `json:"p99_geomean_ms"`
	// GoroutineDelta is runtime.NumGoroutine growth measured after the
	// last scenario drained — the no-leak acceptance check (≤ 2).
	GoroutineDelta int `json:"goroutine_delta"`
}

// serveScenario describes one load pattern.
type serveScenario struct {
	name      string
	cfg       serve.Config
	chaos     *chaos.Config // nil: no fault injection
	clients   int
	perClient int
	request   func(client, seq int) serve.Request
}

func serveScenarios(quick bool) []serveScenario {
	reqs := func(full int) int {
		if quick {
			return full / 2
		}
		return full
	}
	steadyReq := func(client, seq int) serve.Request {
		return serve.Request{Source: serveKernel, Input: "int N = 48;"}
	}
	mixedReq := func(client, seq int) serve.Request {
		r := serve.Request{Source: serveKernel, Input: fmt.Sprintf("int N = %d;", 32+8*(seq%4))}
		if seq%5 == 4 {
			r.Options.Guard = true
		}
		return r
	}
	scenarios := []serveScenario{
		{
			name:      "steady",
			cfg:       serve.Config{MaxConcurrent: 4, QueueDepth: 16, Rate: serve.RateLimit{RPS: -1}},
			clients:   4,
			perClient: reqs(24),
			request:   steadyReq,
		},
	}
	if !quick {
		// Quick keeps only the two gate scenarios (steady, burst): mixed
		// and chaos latencies vary too much for a CI threshold.
		scenarios = append(scenarios, serveScenario{
			name:      "mixed",
			cfg:       serve.Config{MaxConcurrent: 4, QueueDepth: 16, Rate: serve.RateLimit{RPS: -1}},
			clients:   6,
			perClient: reqs(16),
			request:   mixedReq,
		})
	}
	scenarios = append(scenarios,
		serveScenario{
			name: "burst",
			// Capacity 2+2 against 8 closed-loop clients: the queue must
			// overflow, so the shed path (429 + Retry-After) is on the
			// measured path.
			cfg:       serve.Config{MaxConcurrent: 2, QueueDepth: 2, Rate: serve.RateLimit{RPS: -1}},
			clients:   8,
			perClient: reqs(12),
			request:   steadyReq,
		},
	)
	if !quick {
		scenarios = append(scenarios, serveScenario{
			name:      "chaos",
			cfg:       serve.Config{MaxConcurrent: 4, QueueDepth: 8, Rate: serve.RateLimit{RPS: -1}},
			chaos:     &chaos.Config{PanicEvery: 6, DelayEvery: 9, Delay: 5 * time.Millisecond, Seed: 7},
			clients:   6,
			perClient: 12,
			request: func(client, seq int) serve.Request {
				switch seq % 4 {
				case 0:
					return serve.Request{Source: serveKernel, Input: "int N = 48;"}
				case 1:
					return serve.Request{Source: serveKernel, Input: "int N = 40;",
						Options: serve.Options{Guard: true, FaultRollbackEvery: 2}}
				case 2:
					return serve.Request{Source: serveKernel, Input: "int N = 48;",
						Options: serve.Options{MemLimit: 128 << 10}}
				default:
					return serve.Request{Source: serveKernel, Input: "int N = 56;"}
				}
			},
		})
	}
	return scenarios
}

// ServeLoad drives every scenario against an in-process server and
// aggregates the results. quick halves the request counts and skips
// the chaos scenario (the CI gate subset).
func ServeLoad(quick bool) (*ServeLoadReport, error) {
	before := runtime.NumGoroutine()
	rep := &ServeLoadReport{GoVersion: runtime.Version(), Host: thisHost()}
	for _, sc := range serveScenarios(quick) {
		row, err := runServeScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		rep.Rows = append(rep.Rows, *row)
	}
	rep.P99Geomean = geomean(rep.Rows, func(r ServeLoadRow) float64 { return r.P99Ms })

	// No-leak acceptance check: once every scenario's server has shut
	// down and traffic drained, goroutine count must return to baseline.
	// Idle keep-alive connections hold goroutines on both sides and are
	// not leaks, so shed them while polling (the load clients share
	// http.DefaultTransport).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	rep.GoroutineDelta = runtime.NumGoroutine() - before
	if rep.GoroutineDelta > 2 {
		return nil, fmt.Errorf("goroutine leak after drain: %d -> %d",
			before, before+rep.GoroutineDelta)
	}
	return rep, nil
}

func runServeScenario(sc serveScenario) (*ServeLoadRow, error) {
	// Head-sampled tracing attaches a request observer, which disables
	// scalar promotion for that run — a deliberately slower 1-in-N path.
	// With closed-loop p99 sitting at the max sample, leaving sampling
	// on would make the gate measure "how slow was the traced request"
	// instead of serving latency. The obs serve tier gates that overhead
	// separately; this benchmark measures the untraced path.
	sc.cfg.TraceSample = -1
	srv := serve.New(sc.cfg)
	var mws []func(http.Handler) http.Handler
	if sc.chaos != nil {
		mws = append(mws, chaos.Middleware(*sc.chaos))
	}
	ts := httptest.NewServer(srv.Handler(mws...))
	defer ts.Close()

	// Warm the transform cache outside the measured window: one pass
	// over the request generator's cycle (lcm of its modulo patterns)
	// builds every distinct (source, guard) key, so the measured p99 is
	// steady-state serving latency rather than the wall-clock of the
	// first single-flight build — which is what makes the CI gate
	// stable. A regression that loses the cache path still multiplies
	// p99 by the build cost. Warmup failures (e.g. chaos panics) are
	// ignored; the build still happened.
	for seq := 0; seq < 20; seq++ {
		body, err := json.Marshal(sc.request(0, seq))
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}

	// One short unmeasured pass at full concurrency: the serial warmup
	// above leaves the process cold for concurrent serving (GC heap not
	// yet sized for N in-flight arenas, scheduler and CPU clocks not
	// ramped), and those first slow requests weigh twice as much in a
	// quick run's median as in a full run's — which showed up as a
	// systematic quick-vs-baseline gap at the gate. Shed 429s are fine
	// here; the point is concurrent pressure, not completions.
	var warm sync.WaitGroup
	for c := 0; c < sc.clients; c++ {
		warm.Add(1)
		go func(client int) {
			defer warm.Done()
			for seq := 0; seq < 3; seq++ {
				body, err := json.Marshal(sc.request(client, seq))
				if err != nil {
					return
				}
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(c)
	}
	warm.Wait()

	row := &ServeLoadRow{Scenario: sc.name, Clients: sc.clients}
	// Latency quantiles come from the same obs.Histogram/Quantile path
	// the service's /metrics reports through, so BENCH_serve.json and a
	// live scrape measure with one implementation. The power-of-two
	// buckets quantize (microsecond observations, ~±25% inside a
	// bucket); the Min/Max clamp and the CI gate's wide allowance
	// absorb that.
	hist := &obs.Histogram{}
	var (
		mu   sync.Mutex
		hits int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < sc.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 60 * time.Second}
			for seq := 0; seq < sc.perClient; seq++ {
				body, err := json.Marshal(sc.request(client, seq))
				if err != nil {
					return
				}
				t0 := time.Now()
				resp, err := hc.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				mu.Lock()
				row.Requests++
				if err != nil {
					row.Failed++
					mu.Unlock()
					continue
				}
				switch {
				case resp.StatusCode == http.StatusOK:
					row.OK++
					hist.Observe(lat.Microseconds())
					var r serve.Response
					if json.NewDecoder(resp.Body).Decode(&r) == nil && r.CacheHit {
						hits++
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					row.Shed++
				default:
					row.Failed++
				}
				mu.Unlock()
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if row.OK == 0 {
		return nil, fmt.Errorf("no request succeeded (%d shed, %d failed)", row.Shed, row.Failed)
	}
	row.P50Ms = hist.Quantile(0.50) / 1e3
	row.P99Ms = hist.Quantile(0.99) / 1e3
	row.ReqPerSec = float64(row.Requests) / elapsed.Seconds()
	row.ShedRate = float64(row.Shed) / float64(row.Requests)
	row.CacheHitRate = float64(hits) / float64(row.OK)
	return row, nil
}

const (
	// serveObsReqs is one measured batch: sequential cached requests,
	// so the batch time is dominated by the request path itself rather
	// than queueing noise.
	serveObsReqs = 24
	serveObsReps = 5
)

// serveObsTier measures the service layer's leave-on observability
// overhead for the ObsReport: median batch time against a DisableObs
// server vs. the default configuration (registry instruments on every
// request, head-sampled tracing at the default 1-in-8, trace
// retention). Batches alternate order across repetitions so drift in
// host load lands on both configurations evenly.
func serveObsTier(rep *ObsReport) error {
	mkServer := func(disable bool) *httptest.Server {
		return httptest.NewServer(serve.New(serve.Config{
			MaxConcurrent: 2, QueueDepth: 64,
			Rate:       serve.RateLimit{RPS: -1},
			DisableObs: disable,
		}).Handler())
	}
	base, obsd := mkServer(true), mkServer(false)
	defer base.Close()
	defer obsd.Close()

	body, err := json.Marshal(serve.Request{Source: serveKernel, Input: "int N = 32;"})
	if err != nil {
		return err
	}
	batch := func(url string) func() error {
		return func() error {
			for i := 0; i < serveObsReqs; i++ {
				resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("request returned %d", resp.StatusCode)
				}
			}
			return nil
		}
	}

	// The warmup round builds each server's cache entry and brings the
	// process to steady state, as in ObsOverhead.
	s, err := measure(1, serveObsReps, batch(base.URL), batch(obsd.URL))
	if err != nil {
		return err
	}
	rep.ServeBaseNS = median(s[0]).Nanoseconds()
	rep.ServeObsNS = median(s[1]).Nanoseconds()
	rep.ServeOverhead = float64(rep.ServeObsNS)/float64(rep.ServeBaseNS) - 1
	return nil
}

// Render formats the report as a text table.
func (r *ServeLoadReport) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "\nServe load (closed loop, in-process server)\n")
	fmt.Fprintf(&b, "%-8s %7s %8s %6s %5s %7s %9s %8s %8s %6s %6s\n",
		"scenario", "clients", "requests", "ok", "shed", "failed", "req/s", "p50(ms)", "p99(ms)", "shed%", "hit%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %7d %8d %6d %5d %7d %9.1f %8.1f %8.1f %5.1f%% %5.1f%%\n",
			row.Scenario, row.Clients, row.Requests, row.OK, row.Shed, row.Failed,
			row.ReqPerSec, row.P50Ms, row.P99Ms, 100*row.ShedRate, 100*row.CacheHitRate)
	}
	fmt.Fprintf(&b, "geomean p99: %.1f ms\n", r.P99Geomean)
	return b.String()
}
