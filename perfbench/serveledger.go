package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/serve"
)

// serveLedger is the traced serve run. Against the live server it runs
// the closed loop twice, untraced and with client spans, and reads the
// server's own /metrics for the traced phase. It then replays one round
// of the workload's requests through the same public pieces gdsxd's
// handler calls — ParseRequest, Cache.Get (with the build replayed one
// layer at a time on a miss), MemPool.Get, the recovered run or
// GuardedRunPrecompiled, Memory.Reset, MemPool.Put, response encoding —
// with a span around each, and measures each distinct program's run
// ledger.
func serveLedger(cfg config, ls *liveServer, kinds []*reqKind, cold bool, rng *rand.Rand, saltBase int64, o *outcome) error {
	phA, err := runPhase(ls, kinds, cold, rng, saltBase, serveRounds(cfg, cold), clients, false)
	if err != nil {
		return err
	}
	phB, err := runPhase(ls, kinds, cold, rng, saltBase+1<<20, serveRounds(cfg, cold), clients, true)
	if err != nil {
		return err
	}
	latA := account(cfg, kinds, cold, phA, o)
	latB := account(cfg, kinds, cold, phB, o)
	o.values["bench.trace_overhead"] = ratio(mean(latB), mean(latA)) - 1
	ct := &tracer{}
	for _, t := range phB.tracers {
		ct.merge(t)
	}
	fmt.Fprintln(cfg.out, "\nclient spans (traced phase):")
	ct.writeSelfTable(cfg.out)

	d := phB.after.delta(phB.before)
	o.values["serve.cache_hit_frac"] = checkHitFrac(o, d, cold)
	o.values["serve.server_ms_p50"] = d.histQuantile("gdsx_serve_latency_us", 0.5) / 1e3
	o.values["serve.exec_ms_p50"] = d.histQuantile("gdsx_serve_exec_us", 0.5) / 1e3
	o.values["serve.build_ms_p50"] = d.histQuantile("gdsx_serve_build_us", 0.5) / 1e3
	o.values["serve.queue_depth_p50"] = d.histQuantile("gdsx_serve_queue_depth", 0.5)
	o.values["obs.traced_frac"] = ratio(d["gdsx_interp_regions_parallel_total"], d.sumPrefix("gdsx_serve_tenant_regions_total"))
	var overhead []float64
	var violations, recovered float64
	for _, ph := range []*phase{phA, phB} {
		for _, s := range ph.samples {
			if check(kinds[s.kind], s, cold) != nil {
				continue
			}
			overhead = append(overhead, ms(s.rep.lat)-s.rep.resp.ElapsedMs)
			violations += float64(s.rep.resp.Violations)
			recovered += float64(s.rep.resp.Recovered)
		}
	}
	o.values["serve.client_overhead_ms"] = median(overhead)
	o.values["guard.violations"] = violations
	o.values["guard.recovered"] = recovered

	rounds := float64(len(phB.samples)) / float64(len(kinds))
	perRound := func(fam string) time.Duration {
		return time.Duration(d[fam+"_sum"] / rounds * float64(time.Microsecond))
	}
	return replayRound(cfg, kinds, cold, rng, saltBase+2<<20, perRound("gdsx_serve_build_us"), perRound("gdsx_serve_exec_us"), o)
}

// built is a replayed cache entry with what the ledger needs from it.
type built struct {
	entry *serve.Entry
	prog  *program
}

// buildEntry mirrors gdsxd's cache-miss build: compile the request
// source, transform it (profiling under the server's op ceiling) and
// compile the expansion. With a tracer it replays Transform one layer
// at a time and records the build's counts into row.
func buildEntry(t *tracer, k *reqKind, src string, guard bool, lim serve.Limits, row map[string]float64) (*built, error) {
	popts := gdsx.RunOptions{MaxOps: lim.MaxOps}
	native, err := compileTraced(t, "request.c", src)
	if err != nil {
		return nil, err
	}
	p := &program{name: k.name, src: src, native: native, ref: k.ref}
	b := &built{entry: &serve.Entry{Native: native}, prog: p}
	if len(native.ParallelLoops()) == 0 {
		return b, nil
	}
	var tr *gdsx.TransformResult
	if t == nil {
		if tr, err = gdsx.Transform(native, gdsx.TransformOptions{Guard: guard, ProfileOpts: popts}); err != nil {
			return nil, err
		}
	} else {
		out, st, err := replayTransform(t, p, guard, popts)
		if err != nil {
			return nil, err
		}
		tr = &gdsx.TransformResult{Source: out}
		transformRow(row, t, k.name, st)
	}
	exp, err := compileTraced(t, "request.c (expanded)", tr.Source)
	if err != nil {
		return nil, err
	}
	b.entry.Tr, b.entry.Expanded = tr, exp
	return b, nil
}

// replayRound sends one round of the workload's requests through the
// handler's public pieces on a private cache and memory pool.
// The replay's layer sums are compared with the server's build and
// execute time per round for information only: the server worked under
// two concurrent clients, the replay works alone, so they need not
// agree.
func replayRound(cfg config, kinds []*reqKind, cold bool, rng *rand.Rand, saltBase int64, serverBuild, serverExec time.Duration, o *outcome) error {
	lim := serve.Limits{MaxOps: 500_000_000} // gdsxd's default op ceiling
	cache := serve.NewCache(64)
	pool := serve.NewMemPool(clients, 64<<20)
	pool.Put(pool.Get()) // the server's pool holds an arena after its set-up
	led := &ledger{}
	builds := map[string]*built{}
	input := func(k *reqKind, i int) string {
		if cold {
			return salt(saltBase, i)
		}
		return k.input
	}
	if !cold {
		// serve-warm's keys are built and harvested before its round,
		// as its set-up does on the server.
		for i, k := range kinds {
			src := serverInput(input(k, i), k.source)
			b, err := buildEntry(nil, k, src, k.guard, lim, nil)
			if err != nil {
				return fmt.Errorf("%s: build: %w", k.name, err)
			}
			builds[k.name] = b
			cache.Get(serve.Key(src, k.guard), func() *serve.Entry { return b.entry })
			if !k.guard && b.entry.Expanded != nil {
				h := gdsx.NewObserver(true)
				if _, err := b.entry.Expanded.Run(gdsx.RunOptions{Threads: 2, Obs: h, Recover: &gdsx.RecoverySpec{}}); err != nil {
					return fmt.Errorf("%s: harvest: %w", k.name, err)
				}
				b.entry.SetProfile(gdsx.SiteProfileFromReports(h.Hot.Report()))
			}
		}
	}

	t := &tracer{}
	for i, ki := range rng.Perm(len(kinds)) {
		k := kinds[ki]
		body := k.body(input(k, i))
		row := led.row(k.name)
		t.setRow(k.name)
		o.attempted++
		out, err := replayRequest(t, k, body, cache, pool, builds, row)
		if err == nil && out != k.ref {
			err = fmt.Errorf("output differs from the reference")
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "replay %s FAILED: %v\n", k.name, err)
		}
	}

	// A guarded request's overhead is over the same program's unguarded
	// request in the same round.
	for _, k := range kinds {
		if r := led.row(k.name); k.guard && r["guard.run_ms"] > 0 {
			base := t.self("interp.run", strings.TrimSuffix(k.name, "+guard"))
			r["guard.overhead"] = ratio(r["guard.run_ms"], ms(base)) - 1
		}
	}

	// Run ledger: each distinct unguarded program on the library path.
	for _, k := range kinds {
		b := builds[k.name]
		if k.guard || b == nil {
			continue
		}
		exp := b.entry.Expanded
		if exp == nil {
			exp = b.entry.Native
		}
		o.attempted++
		l, err := measureRuns(b.prog, exp, gdsx.RunOptions{Recover: &gdsx.RecoverySpec{}}, 3)
		if err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "run ledger %s FAILED: %v\n", k.name, err)
			continue
		}
		runRow(led.row(k.name), l)
	}

	fmt.Fprintln(cfg.out, "\nspans (library replay of one round):")
	t.writeSelfTable(cfg.out)
	fmt.Fprintln(cfg.out)
	reqCols := []string{"interp.snapshot_mb", "mem.high_water_ratio", "guard.run_ms", "guard.overhead", "obs.harvest_ms"}
	if cold {
		led.print(cfg.out, transformCols)
		fmt.Fprintln(cfg.out)
		led.setTotals(o, transformCols)
	} else {
		o.idle("parser.", "sema.", "profile.", "ddg.", "alias.", "expand.")
	}
	led.print(cfg.out, append(runCols, reqCols...))
	led.setTotals(o, runCols)
	o.values["mem.high_water_ratio"] = led.total("mem.high_water_ratio")
	o.values["guard.overhead"] = led.total("guard.overhead")
	o.values["interp.snapshot_mb"] = led.total("interp.snapshot_mb")
	o.values["obs.harvest_ms"] = led.total("obs.harvest_ms")
	usMedian := func(name string) float64 { return 1e3 * median(t.selfs(name)) }
	o.values["mem.reset_us"] = usMedian("mem.reset")
	o.values["serve.parse_request_us"] = usMedian("serve.parse_request")
	o.values["serve.encode_us"] = usMedian("serve.encode")
	o.values["serve.cache_get_us"] = usMedian("serve.cache_get")
	o.values["guard.run_ms"] = median(t.selfs("guard.run"))
	var layers time.Duration
	for _, n := range transformLayers {
		layers += t.self(n, "")
	}
	o.values["bench.reconcile_transform"] = ratio(layers.Seconds(), serverBuild.Seconds())
	runs := t.self("interp.run", "") + t.self("guard.run", "") + t.self("obs.harvest_run", "")
	o.values["bench.reconcile_run"] = ratio(runs.Seconds(), serverExec.Seconds())
	return nil
}

// serverInput is the source gdsxd compiles for a request: the input
// preamble, a newline, then the source.
func serverInput(input, source string) string {
	if input == "" {
		return source
	}
	return input + "\n" + source
}

// replayRequest is one request on the handler's public pieces. It
// returns the output and fills the request's ledger row.
func replayRequest(t *tracer, k *reqKind, body []byte, cache *serve.Cache, pool *serve.MemPool, builds map[string]*built, row map[string]float64) (string, error) {
	end := t.begin("request")
	defer end()
	e := t.begin("serve.parse_request")
	req, perr := serve.ParseRequest(body, serve.Limits{})
	e()
	if perr != nil {
		return "", perr
	}
	lim := serve.Limits{MaxOps: req.Options.MaxOps}
	src := serverInput(req.Input, req.Source)
	var berr error
	e = t.begin("serve.cache_get")
	entry, _ := cache.Get(serve.Key(src, req.Options.Guard), func() *serve.Entry {
		b, err := buildEntry(t, k, src, req.Options.Guard, lim, row)
		if err != nil {
			berr = err
			return &serve.Entry{}
		}
		builds[k.name] = b
		return b.entry
	})
	e()
	if berr != nil {
		return "", berr
	}

	e = t.begin("mem.pool_get")
	arena := pool.Get()
	e()
	ropts := gdsx.RunOptions{
		Threads:       req.Options.Threads,
		MemLimit:      req.Options.MemLimit,
		MaxOps:        req.Options.MaxOps,
		Memory:        arena,
		Recover:       &gdsx.RecoverySpec{},
		RegionTimeout: time.Duration(req.Options.TimeoutMs) * time.Millisecond,
	}
	var res gdsx.Result
	var err error
	resp := serve.Response{}
	if req.Options.Guard {
		e = t.begin("guard.run")
		t0 := time.Now()
		var g *gdsx.GuardedResult
		g, err = gdsx.GuardedRunPrecompiled(entry.Native, entry.Tr, entry.Expanded, ropts)
		d := time.Since(t0)
		e()
		if err == nil {
			res = g.Result
			resp.Recovered, resp.Violations = g.Recovered, len(g.Violations)
			row["guard.run_ms"] = ms(d)
		}
	} else {
		prog := entry.Expanded
		if prog == nil {
			prog = entry.Native
		}
		var h *gdsx.Observer
		name := "interp.run"
		if p := entry.Profile(); p != nil {
			ropts.OptProfile = p
		} else {
			h = gdsx.NewObserver(true)
			ropts.Obs = h
			name = "obs.harvest_run"
		}
		e = t.begin(name)
		t0 := time.Now()
		res, err = prog.Run(ropts)
		d := time.Since(t0)
		e()
		if err == nil && h != nil {
			entry.SetProfile(gdsx.SiteProfileFromReports(h.Hot.Report()))
			e = t.begin("bench.rerun")
			rerun := timedRerun(prog, ropts, entry, pool)
			e()
			row["obs.harvest_ms"] = ms(d) - ms(rerun)
		}
	}
	hw := float64(arena.Stats().HighWater) / float64(arena.Cap())
	e = t.begin("mem.reset")
	arena.Reset()
	e()
	e = t.begin("mem.pool_put")
	pool.Put(arena)
	e()
	if err != nil {
		return "", err
	}
	row["mem.high_water_ratio"] = hw
	resp.Output, resp.CacheHit = res.Output, true
	e = t.begin("serve.encode")
	err = json.NewEncoder(io.Discard).Encode(resp)
	e()
	var snap int64
	for _, r := range res.Regions {
		snap += r.SnapshotBytes
	}
	row["interp.snapshot_mb"] = float64(snap) / (1 << 20)
	return res.Output, err
}

// timedRerun times the run a request after the harvest makes: the same
// program with the harvested profile, on a fresh pooled arena.
func timedRerun(prog *gdsx.Program, ropts gdsx.RunOptions, entry *serve.Entry, pool *serve.MemPool) time.Duration {
	arena := pool.Get()
	defer pool.Put(arena)
	ropts.Memory, ropts.Obs, ropts.OptProfile = arena, nil, entry.Profile()
	t0 := time.Now()
	if _, err := prog.Run(ropts); err != nil {
		return 0
	}
	return time.Since(t0)
}
