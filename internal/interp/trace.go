package interp

import "gdsx/internal/ast"

// IterCost is the simulated cost of one loop iteration, in interpreter
// operations ("ops"). For ordered DOACROSS bodies the cost splits into
// the part before the ordered section, the ordered section itself, and
// the rest; DOALL iterations put everything in Pre. Mem counts the
// memory accesses performed, which the schedule simulator uses for its
// bandwidth bound.
type IterCost struct {
	Pre     int64
	Ordered int64
	Post    int64
	Mem     int64 // cache-missing accesses (DRAM traffic)
	MemAll  int64 // all memory accesses (shared-cache/bus traffic)
}

// Total returns the full op cost of the iteration.
func (c IterCost) Total() int64 { return c.Pre + c.Ordered + c.Post }

// LoopTrace records one dynamic execution (instance) of a parallel
// loop under TraceParallel: the loop kind and the per-iteration costs,
// in iteration order. The schedule simulator replays it for any thread
// count.
type LoopTrace struct {
	LoopID int
	Kind   ast.ParKind
	Iters  []IterCost
}

// Ops returns the total op cost across all iterations.
func (tr *LoopTrace) Ops() int64 {
	var s int64
	for _, c := range tr.Iters {
		s += c.Total()
	}
	return s
}

// traceState is the per-thread bookkeeping while tracing a parallel
// loop instance.
type traceState struct {
	trace       *LoopTrace
	iterStart   int64 // CatWork snapshot at iteration start
	memStart    int64
	memAllStart int64
	waitMark    int64 // snapshot at __sync_wait, -1 if not seen
	postMark    int64 // snapshot at __sync_post, -1 if not seen
}

// beginIter snapshots the counters at the start of an iteration.
func (ts *traceState) beginIter(t *thread) {
	ts.iterStart = t.counters[CatWork]
	ts.memStart = t.memMiss
	ts.memAllStart = t.memOps
	ts.waitMark = -1
	ts.postMark = -1
}

// endIter finalizes the iteration's cost record.
func (ts *traceState) endIter(t *thread) {
	total := t.counters[CatWork] - ts.iterStart
	mem := t.memMiss - ts.memStart
	memAll := t.memOps - ts.memAllStart
	var c IterCost
	switch {
	case ts.waitMark >= 0 && ts.postMark >= 0:
		c.Pre = ts.waitMark - ts.iterStart
		c.Ordered = ts.postMark - ts.waitMark
		c.Post = total - c.Pre - c.Ordered
	case ts.waitMark >= 0:
		// Wait without post: the runtime auto-posts at iteration end.
		c.Pre = ts.waitMark - ts.iterStart
		c.Ordered = total - c.Pre
	default:
		c.Pre = total
	}
	c.Mem = mem
	c.MemAll = memAll
	ts.trace.Iters = append(ts.trace.Iters, c)
}

// runTracedFor executes a parallel loop sequentially while recording
// the per-iteration cost trace the schedule simulator replays.
func (t *thread) runTracedFor(f *frame, l *parLoop) ctrl {
	x := l.x
	tr := &LoopTrace{LoopID: x.ID, Kind: x.Par}
	t.ts = &traceState{trace: tr}
	h := t.m.opts.Hooks
	if h != nil && h.ParallelStart != nil {
		h.ParallelStart(x.ID, t.m.opts.NumThreads)
	}
	defer func() {
		t.ts = nil
		t.m.traces = append(t.m.traces, tr)
		if h != nil && h.ParallelEnd != nil {
			h.ParallelEnd(x.ID)
		}
	}()

	mark := t.sp
	defer func() { t.sp = mark }()
	if l.init != nil {
		if c := l.init(t, f); c != ctrlNext {
			return c
		}
	}
	for iter := int64(0); l.test == nil || l.test(t, f); iter++ {
		t.curIter = iter
		t.posted = false
		t.ts.beginIter(t)
		c := l.body(t, f)
		t.ts.endIter(t)
		if c == ctrlBreak {
			break
		}
		if c == ctrlReturn {
			return c
		}
		if l.post != nil {
			l.post(t, f)
		}
	}
	return ctrlNext
}
