package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// The batch workload is the library/CLI pipeline of the paper's
// evaluation over the eight Table 4 programs: profile each program's
// loops at ProfileScale, transform, then run the expanded program at
// BenchScale on two threads. Dependence profiling, expansion and long
// interpreter runs do nearly all the work; the service layer does none.

// batchWarmup is the program whose pipeline set-up runs once before
// measuring, so the first measured job does not pay for code paths and
// heap growth the later ones find warm.
const batchWarmup = "md5"

// batchPassSeconds is one pass's time on the reference host (profiling
// mpeg2-encoder alone is about half of it). Batch always measures at
// least two passes and reports their medians: one pass leaves the
// per-pass sums at the mercy of one slow moment of the host.
const batchPassSeconds = 15

// loadBatch generates the eight programs' sources and fetches their
// references. Reference computation is the benchmark's own checking
// cost, not set-up of the system, and is not timed.
func loadBatch(refs *refStore) ([]*program, error) {
	var progs []*program
	for _, w := range workloads.All() {
		p := &program{name: w.Name, src: w.Source(workloads.BenchScale), psrc: w.Source(workloads.ProfileScale)}
		ref, err := refs.get(w.Name, p.src)
		if err != nil {
			return nil, err
		}
		p.ref = ref
		progs = append(progs, p)
	}
	return progs, nil
}

// setupBatch compiles every input and runs the warm-up job.
func setupBatch(progs []*program) (time.Duration, error) {
	t0 := time.Now()
	for _, p := range progs {
		native, err := gdsx.Compile(p.name+".c", p.src)
		if err != nil {
			return 0, err
		}
		if _, err := gdsx.Compile(p.name+".c", p.psrc); err != nil {
			return 0, err
		}
		p.native = native
	}
	for _, p := range progs {
		if p.name == batchWarmup {
			if j := runJob(p); j.err != nil {
				return 0, fmt.Errorf("warm-up: %w", j.err)
			}
		}
	}
	return time.Since(t0), nil
}

// job is one program's trip through the pipeline.
type job struct {
	name                  string
	transform, run, total time.Duration
	source                string // the expanded program
	err                   error
}

// runJob transforms a program and runs its expansion on two threads,
// checking the output.
func runJob(p *program) job {
	j := job{name: p.name}
	t0 := time.Now()
	tr, err := gdsx.Transform(p.native, gdsx.TransformOptions{ProfileSource: p.psrc})
	j.transform = time.Since(t0)
	if err != nil {
		j.err = err
		return j
	}
	j.source = tr.Source
	exp, err := gdsx.Compile(p.name+" (expanded).c", tr.Source)
	if err != nil {
		j.err = err
		return j
	}
	t1 := time.Now()
	res, err := exp.Run(gdsx.RunOptions{Threads: 2})
	j.run = time.Since(t1)
	j.total = time.Since(t0)
	switch {
	case err != nil:
		j.err = err
	case res.Output != p.ref:
		j.err = fmt.Errorf("%s: expanded output differs from the reference", p.name)
	}
	return j
}

// batchPass runs every program once, in an order drawn from rng. A
// collection between jobs keeps one job's garbage out of the next
// job's time and memory peak.
func batchPass(progs []*program, rng *rand.Rand) []job {
	var jobs []job
	for _, i := range rng.Perm(len(progs)) {
		runtime.GC()
		jobs = append(jobs, runJob(progs[i]))
	}
	return jobs
}

func runBatch(cfg config) (*outcome, error) {
	progs, err := loadBatch(cfg.refs)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		d, err := setupBatch(progs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	o := &outcome{values: map[string]float64{}}
	if cfg.trace {
		return o, batchLedger(cfg, progs, rng, o)
	}

	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	var transforms, runs, totals, rates []float64
	bounds := []time.Time{time.Now()}
	for pass := max(2, work(cfg.seconds, 1.0/batchPassSeconds)); pass > 0; pass-- {
		var tf, rn float64
		ok := 0
		for _, j := range batchPass(progs, rng) {
			o.attempted++
			fmt.Fprintf(cfg.out, "job %-14s transform_ms %10.2f run_ms %9.2f total_ms %10.2f", j.name, ms(j.transform), ms(j.run), ms(j.total))
			if j.err != nil {
				o.failed++
				fmt.Fprintf(cfg.out, " FAILED: %v\n", j.err)
				continue
			}
			fmt.Fprintln(cfg.out, " ok")
			ok++
			tf += j.transform.Seconds()
			rn += j.run.Seconds()
			totals = append(totals, ms(j.total))
		}
		transforms = append(transforms, tf)
		runs = append(runs, rn)
		bounds = append(bounds, time.Now())
		rates = append(rates, float64(ok)/bounds[len(bounds)-1].Sub(bounds[len(bounds)-2]).Seconds())
	}
	rss.finish()

	p := tailPercentile(len(totals))
	o.values["setup_s"] = median(setups)
	o.values["transform_s"] = median(transforms)
	o.values["run_s"] = median(runs)
	o.values["p50_ms"] = median(totals)
	o.values["tail_ms"] = quantile(totals, float64(p)/100)
	o.values["rps"] = median(rates)
	o.values["peak_rss_mb"] = rss.medianPeak(bounds)
	fmt.Fprintf(cfg.out, "passes %d, jobs %d, tail_ms is p%d of %d jobs, setup_s over %d set-ups\n",
		len(transforms), len(totals), p, len(totals), len(setups))
	return o, nil
}
