package main

import (
	"fmt"
	"time"

	"gdsx"
	"gdsx/internal/alias"
	"gdsx/internal/ddg"
	"gdsx/internal/expand"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// program is one input of a workload: its source, the optional
// smaller-scale source its loops are profiled on, its compiled native
// form and its reference output.
type program struct {
	name   string
	src    string
	psrc   string // "" profiles src itself
	native *gdsx.Program
	ref    string
}

// transformStats are the counts one pipeline build produces.
type transformStats struct {
	memops, edges                int64
	structures, promoted         int
	spanStores, spanStoresElided int
	srcBytes, expBytes           int
}

// compileTraced is gdsx.Compile split into its two public calls.
func compileTraced(t *tracer, file, src string) (*gdsx.Program, error) {
	end := t.begin("parser.parse")
	prog, err := parser.Parse(file, src)
	end()
	if err != nil {
		return nil, err
	}
	end = t.begin("sema.check")
	info, err := sema.Check(prog)
	end()
	if err != nil {
		return nil, err
	}
	return &gdsx.Program{File: file, Source: src, AST: prog, Info: info}, nil
}

// replayTransform performs gdsx.Transform one public layer call at a
// time — frontend, ProfileLoop, Classify, alias.Analyze, expand.Expand,
// Print, recompile — with a span around each call. It mirrors
// Transform's steps for the options the workloads use (the optimized
// expansion, default classification, optional guard notes); the caller
// checks that its source is byte-identical to Transform's, which is
// what makes the per-layer times a decomposition of Transform's time.
func replayTransform(t *tracer, p *program, guard bool, popts gdsx.RunOptions) (string, transformStats, error) {
	var st transformStats
	work, err := compileTraced(t, p.native.File, p.native.Source)
	if err != nil {
		return "", st, err
	}
	loops := work.ParallelLoops()
	if len(loops) == 0 {
		return "", st, fmt.Errorf("%s has no parallel loops", p.name)
	}
	eopts := expand.Optimized()
	eopts.GuardNotes = guard
	copts := ddg.DefaultOptions()
	if eopts.Commutative && copts.CommSites == nil {
		copts.CommSites = sema.CommSites(work.Info)
	}
	profProg := work
	if p.psrc != "" {
		if profProg, err = compileTraced(t, p.native.File+" (profile input)", p.psrc); err != nil {
			return "", st, err
		}
	}
	var las []expand.LoopAnalysis
	for _, id := range loops {
		end := t.begin("profile.loop")
		pr, err := profProg.ProfileLoop(id, popts)
		end()
		if err != nil {
			return "", st, fmt.Errorf("profiling loop %d: %w", id, err)
		}
		st.memops += pr.Run.MemOps
		st.edges += int64(len(pr.Graph.Edges()))
		end = t.begin("ddg.classify")
		cls := ddg.Classify(pr.Graph, copts)
		end()
		las = append(las, expand.LoopAnalysis{ID: id, Graph: pr.Graph, Class: cls})
	}
	end := t.begin("alias.analyze")
	an := alias.Analyze(work.AST, work.Info)
	end()
	end = t.begin("expand.expand")
	rep, err := expand.Expand(expand.Input{Prog: work.AST, Info: work.Info, Loops: las, Alias: an}, eopts)
	end()
	if err != nil {
		return "", st, fmt.Errorf("expanding: %w", err)
	}
	end = t.begin("ast.print")
	out := work.Print()
	end()
	if _, err := compileTraced(t, p.native.File+" (expanded)", out); err != nil {
		return "", st, fmt.Errorf("expansion does not recompile: %w", err)
	}
	st.structures = rep.Structures
	st.promoted = len(rep.Promoted)
	st.spanStores = rep.SpanStores
	st.spanStoresElided = rep.SpanStoresElided
	st.srcBytes, st.expBytes = len(p.src), len(out)
	return out, st, nil
}

// transformLayers are the spans whose self times decompose Transform.
var transformLayers = []string{
	"parser.parse", "sema.check", "profile.loop", "ddg.classify",
	"alias.analyze", "expand.expand", "ast.print",
}

// runLedger is one program's run-side layer measurements.
type runLedger struct {
	native1t, exp1t, exp2t, obs2t time.Duration
	nativeWork, expWork           int64
	syncOps, waitOps              int64
	highWater                     int64 // bytes, against the default 64 MiB memory
}

// measureRuns times the native program on one thread and the expanded
// program on one and two threads, plus the two-thread run with the
// leave-on observer attached; each time is the median of reps runs.
// Every output is checked against the reference.
func measureRuns(p *program, exp *gdsx.Program, base gdsx.RunOptions, reps int) (runLedger, error) {
	var l runLedger
	run := func(prog *gdsx.Program, threads int, o *gdsx.Observer) (gdsx.Result, time.Duration, error) {
		opts := base
		opts.Threads = threads
		opts.Obs = o
		var res gdsx.Result
		var ds []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			r, err := prog.Run(opts)
			ds = append(ds, float64(time.Since(t0)))
			if err == nil && r.Output != p.ref {
				err = fmt.Errorf("%s: output differs from the reference", p.name)
			}
			if err != nil {
				return r, 0, err
			}
			res = r
		}
		return res, time.Duration(median(ds)), nil
	}
	nres, d, err := run(p.native, 1, nil)
	if err != nil {
		return l, err
	}
	l.native1t, l.nativeWork = d, nres.Counters[interp.CatWork]
	if _, l.exp1t, err = run(exp, 1, nil); err != nil {
		return l, err
	}
	res, d, err := run(exp, 2, nil)
	if err != nil {
		return l, err
	}
	l.exp2t, l.expWork = d, res.Counters[interp.CatWork]
	l.syncOps, l.waitOps = res.Counters[interp.CatSync], res.Counters[interp.CatWait]
	l.highWater = res.MemStats.HighWater
	if _, l.obs2t, err = run(exp, 2, gdsx.NewObserver(false)); err != nil {
		return l, err
	}
	return l, nil
}
