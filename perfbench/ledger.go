package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gdsx"
)

// reconcileTol is how far the traced layers' summed self times may be
// from the untraced transform_s and run_s of the same run (as a share
// of the untraced figure) before the decomposition counts as broken.
// The two figures time the same calls twice, back to back for each
// program, so they differ by run-to-run noise only.
const reconcileTol = 0.25

// ledger holds one row of per-layer values per program or request kind.
type ledger struct {
	rows []*ledgerRow
}

type ledgerRow struct {
	name string
	v    map[string]float64
}

func (l *ledger) row(name string) map[string]float64 {
	for _, r := range l.rows {
		if r.name == name {
			return r.v
		}
	}
	r := &ledgerRow{name: name, v: map[string]float64{}}
	l.rows = append(l.rows, r)
	return r.v
}

// How a column aggregates over rows: ratios with the geometric mean,
// overheads (a ratio minus one) as the geometric mean of the ratio
// minus one, per-request sizes with the mean; everything else adds up.
var aggregation = map[string]string{
	"expand.src_growth": "geo", "interp.speedup_2t": "geo", "interp.parallel_eff": "geo",
	"interp.ops_ratio": "geo", "mem.high_water_ratio": "geo",
	"obs.overhead": "overhead", "guard.overhead": "overhead",
	"interp.snapshot_mb": "mean",
}

// total aggregates one column over the rows that have it.
func (l *ledger) total(name string) float64 {
	if name == "profile.ns_per_memop" {
		return ratio(l.total("profile.ms")*1e6, l.total("profile.memops"))
	}
	var xs []float64
	for _, r := range l.rows {
		if v, ok := r.v[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	switch aggregation[name] {
	case "geo":
		return geomean(xs)
	case "overhead":
		for i := range xs {
			xs[i]++
		}
		return geomean(xs) - 1
	case "mean":
		return mean(xs)
	}
	return sum(xs)
}

// print writes the rows and the total line for the given columns.
func (l *ledger) print(w io.Writer, cols []string) {
	fmt.Fprintf(w, "%-16s", "row")
	for _, c := range cols {
		fmt.Fprintf(w, " %14s", strings.TrimPrefix(c, "interp."))
	}
	fmt.Fprintln(w)
	line := func(name string, get func(string) (float64, bool)) {
		fmt.Fprintf(w, "%-16s", name)
		for _, c := range cols {
			if v, ok := get(c); ok {
				fmt.Fprintf(w, " %14.6g", v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, r := range l.rows {
		line(r.name, func(c string) (float64, bool) { v, ok := r.v[c]; return v, ok })
	}
	line("total", func(c string) (float64, bool) { return l.total(c), true })
}

// setTotals copies every column's total into the outcome.
func (l *ledger) setTotals(o *outcome, cols []string) {
	for _, c := range cols {
		o.values[c] = l.total(c)
	}
}

// idle records 0 for every per-layer metric with one of the prefixes:
// layers that do no work on the workload.
func (o *outcome) idle(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				o.values[d.name] = 0
			}
		}
	}
}

var transformCols = []string{
	"parser.parse_ms", "sema.check_ms", "profile.ms", "profile.memops", "profile.ns_per_memop",
	"ddg.edges", "ddg.classify_ms", "alias.analyze_ms", "expand.ms", "expand.structures",
	"expand.promoted", "expand.span_stores", "expand.span_stores_elided", "expand.src_growth",
}

var runCols = []string{
	"interp.native_1t_ms", "interp.exp_1t_ms", "interp.exp_2t_ms", "interp.speedup_2t",
	"interp.parallel_eff", "interp.ops_ratio", "interp.sync_ops", "interp.wait_ops", "obs.overhead",
}

// transformRow fills a row from one replayed build's spans and counts.
func transformRow(r map[string]float64, t *tracer, row string, st transformStats) {
	selfMs := func(n string) float64 { return ms(t.self(n, row)) }
	r["parser.parse_ms"] = selfMs("parser.parse")
	r["sema.check_ms"] = selfMs("sema.check")
	r["profile.ms"] = selfMs("profile.loop")
	r["profile.memops"] = float64(st.memops)
	r["profile.ns_per_memop"] = ratio(float64(t.self("profile.loop", row)), float64(st.memops))
	r["ddg.edges"] = float64(st.edges)
	r["ddg.classify_ms"] = selfMs("ddg.classify")
	r["alias.analyze_ms"] = selfMs("alias.analyze")
	r["expand.ms"] = selfMs("expand.expand")
	r["expand.structures"] = float64(st.structures)
	r["expand.promoted"] = float64(st.promoted)
	r["expand.span_stores"] = float64(st.spanStores)
	r["expand.span_stores_elided"] = float64(st.spanStoresElided)
	r["expand.src_growth"] = ratio(float64(st.expBytes), float64(st.srcBytes))
}

// runRow fills a row from one program's run ledger.
func runRow(r map[string]float64, l runLedger) {
	r["interp.native_1t_ms"] = ms(l.native1t)
	r["interp.exp_1t_ms"] = ms(l.exp1t)
	r["interp.exp_2t_ms"] = ms(l.exp2t)
	r["interp.speedup_2t"] = ratio(ms(l.native1t), ms(l.exp2t))
	r["interp.parallel_eff"] = ratio(ms(l.exp1t), 2*ms(l.exp2t))
	r["interp.ops_ratio"] = ratio(float64(l.expWork), float64(l.nativeWork))
	r["interp.sync_ops"] = float64(l.syncOps)
	r["interp.wait_ops"] = float64(l.waitOps)
	r["obs.overhead"] = ratio(ms(l.obs2t), ms(l.exp2t)) - 1
}

// defaultMemBytes is the simulated memory a run gets when none is
// injected (gdsx.NewMemory's default).
const defaultMemBytes = 64 << 20

// reconcile records how the traced layers' self times compare with the
// untraced figure and fails the check outside the tolerance.
func reconcile(o *outcome, name string, layers, untraced time.Duration) {
	r := ratio(layers.Seconds(), untraced.Seconds())
	o.values[name] = r
	if math.Abs(r-1) > reconcileTol {
		o.problem("%s = %.3f: layer self times %.3fs vs untraced %.3fs, outside ±%.0f%%",
			name, r, layers.Seconds(), untraced.Seconds(), 100*reconcileTol)
	}
}

// transformTries bounds matchTransform. Transform's output can differ
// between calls on the same input: expand creates fat-pointer struct
// types while ranging over a map, so the order of their definitions
// changes (one order in eight on bzip2). 64 tries miss a one-in-eight
// order with probability 2e-4.
const transformTries = 64

// matchTransform calls Transform until its source equals src byte for
// byte and returns the number of calls it took, or 0 if none did.
func matchTransform(p *program, src string) int {
	for i := 1; i <= transformTries; i++ {
		tr, err := gdsx.Transform(p.native, gdsx.TransformOptions{ProfileSource: p.psrc})
		if err == nil && tr.Source == src {
			return i
		}
	}
	return 0
}

// batchLedger is the traced batch run. For each program in a seeded
// order it runs the untraced pipeline job, then straight after it
// replays the program's Transform one layer call at a time (checking
// the replay reproduces Transform's source byte for byte) and runs the
// expansion inside a span. The two sides of each program run back to
// back, so both see the same state of the host, and the layers' self
// times must add up to the untraced jobs' transform_s and run_s. A run
// ledger per program follows.
func batchLedger(cfg config, progs []*program, rng *rand.Rand, o *outcome) error {
	t := &tracer{}
	exps := map[string]*gdsx.Program{}
	led := &ledger{}
	var order []*program
	var tfU, rnU, untraced, traced time.Duration
	for _, i := range rng.Perm(len(progs)) {
		p := progs[i]
		order = append(order, p)
		o.attempted++
		runtime.GC()
		j := runJob(p)
		if j.err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "job %s FAILED: %v\n", p.name, j.err)
			continue
		}
		untraced += j.total
		tfU += j.transform
		rnU += j.run

		o.attempted++
		runtime.GC()
		t0 := time.Now()
		t.setRow(p.name)
		end := t.begin("transform")
		src, st, err := replayTransform(t, p, false, gdsx.RunOptions{})
		end()
		var exp *gdsx.Program
		if err == nil {
			exp, err = gdsx.Compile(p.name+" (expanded).c", src)
		}
		if err == nil {
			end = t.begin("interp.run")
			var res gdsx.Result
			res, err = exp.Run(gdsx.RunOptions{Threads: 2})
			end()
			if err == nil && res.Output != p.ref {
				err = fmt.Errorf("expanded output differs from the reference")
			}
		}
		d := time.Since(t0)
		traced += d
		if err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "replay %s FAILED: %v\n", p.name, err)
			continue
		}
		exps[p.name] = exp
		transformRow(led.row(p.name), t, p.name, st)
		fmt.Fprintf(cfg.out, "pair %-14s untraced transform_ms %10.2f run_ms %9.2f | traced total_ms %10.2f\n",
			p.name, ms(j.transform), ms(j.run), ms(d))
		if src == j.source {
			continue
		}
		if n := matchTransform(p, src); n > 0 {
			fmt.Fprintf(cfg.out, "%s: Transform is nondeterministic; call %d reproduced the replay byte for byte\n", p.name, n)
		} else {
			o.problem("%s: replayed Transform differs from every Transform output tried", p.name)
		}
	}
	o.values["bench.trace_overhead"] = ratio(traced.Seconds(), untraced.Seconds()) - 1
	var layers time.Duration
	for _, n := range transformLayers {
		layers += t.self(n, "")
	}
	reconcile(o, "bench.reconcile_transform", layers, tfU)
	reconcile(o, "bench.reconcile_run", t.self("interp.run", ""), rnU)

	for _, p := range order {
		exp, ok := exps[p.name]
		if !ok {
			continue
		}
		o.attempted++
		l, err := measureRuns(p, exp, gdsx.RunOptions{}, 1)
		if err != nil {
			o.failed++
			fmt.Fprintf(cfg.out, "run ledger %s FAILED: %v\n", p.name, err)
			continue
		}
		r := led.row(p.name)
		runRow(r, l)
		r["mem.high_water_ratio"] = float64(l.highWater) / defaultMemBytes
	}

	fmt.Fprintln(cfg.out, "\nspans (traced jobs):")
	t.writeSelfTable(cfg.out)
	fmt.Fprintf(cfg.out, "\nuntraced jobs %.3fs (transform %.3fs, run %.3fs), traced jobs %.3fs\n\n",
		untraced.Seconds(), tfU.Seconds(), rnU.Seconds(), traced.Seconds())
	led.print(cfg.out, transformCols)
	fmt.Fprintln(cfg.out)
	led.print(cfg.out, append(runCols, "mem.high_water_ratio"))
	led.setTotals(o, transformCols)
	led.setTotals(o, append(runCols, "mem.high_water_ratio"))
	o.idle("serve.", "guard.", "interp.snapshot_mb", "mem.reset_us", "obs.traced_frac", "obs.harvest_ms")
	return nil
}
