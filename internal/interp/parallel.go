package interp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdsx/internal/ast"
	"gdsx/internal/obs"
	"gdsx/internal/token"
)

// loopBounds describes the iteration space of a parallel for loop:
// iteration k executes with indvar = start + k*step, for k in [0, n).
type loopBounds struct {
	start, step, n int64
}

// loopHeader is an engine's form of a parallel loop's header: the step
// and bound operands as closures, and the comparison with the
// induction variable on the left. A header the runtime cannot
// partition compiles to an operand that raises the fault, so it fires
// at the same point of the evaluation order in every engine.
type loopHeader struct {
	step, bound cexpr
	op          token.Kind
}

// newLoopHeader splits x's post and condition into the step and bound
// operands and turns each into a closure with operand, the engine's
// expression evaluator.
func newLoopHeader(x *ast.For, operand func(ast.Expr) cexpr) loopHeader {
	isIV := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Sym == x.IndVar
	}
	// Any other post expression leaves the step zero.
	h := loopHeader{step: func(*thread, *frame) value { return value{} }}
	switch p := x.Post.(type) {
	case *ast.IncDec:
		h.step = func(*thread, *frame) value { return value{I: 1} }
	case *ast.Assign:
		switch p.Op {
		case token.ADDASSIGN:
			h.step = operand(p.RHS)
		case token.ASSIGN:
			h.step = fault(x.Pos(), "unsupported parallel loop step")
			if b, ok := p.RHS.(*ast.Binary); ok && b.Op == token.ADD {
				if isIV(b.X) {
					h.step = operand(b.Y)
				} else if isIV(b.Y) {
					h.step = operand(b.X)
				}
			}
		}
	}

	h.bound = fault(x.Pos(), "parallel loop condition does not test the induction variable")
	if cond, ok := x.Cond.(*ast.Binary); ok {
		h.op = cond.Op
		if isIV(cond.X) {
			h.bound = operand(cond.Y)
		} else if isIV(cond.Y) {
			h.bound = operand(cond.X)
			// Mirror the comparison so the induction variable is on the left.
			switch h.op {
			case token.LSS:
				h.op = token.GTR
			case token.GTR:
				h.op = token.LSS
			case token.LEQ:
				h.op = token.GEQ
			case token.GEQ:
				h.op = token.LEQ
			}
		}
	}
	return h
}

// bounds computes the iteration space. Parallel loops require
// loop-invariant bound and step expressions (as in OpenMP); both are
// evaluated once, here, step first.
func (t *thread) bounds(f *frame, x *ast.For, h loopHeader) loopBounds {
	iv := x.IndVar
	start := t.loadTyped(t.symAddr(f, iv, x.Pos()), iv.Type).I
	step := h.step(t, f).I
	if step == 0 {
		rterrf(x.Pos(), "parallel loop has zero step")
	}
	bound := h.bound(t, f).I

	var n int64
	switch h.op {
	case token.LSS:
		if step > 0 && bound > start {
			n = (bound - start + step - 1) / step
		}
	case token.LEQ:
		if step > 0 && bound >= start {
			n = (bound-start)/step + 1
		}
	case token.GTR:
		if step < 0 && bound < start {
			n = (start - bound + (-step) - 1) / (-step)
		}
	case token.GEQ:
		if step < 0 && bound <= start {
			n = (start-bound)/(-step) + 1
		}
	case token.NEQ:
		if step != 0 && (bound-start)%step == 0 && (bound-start)/step > 0 {
			n = (bound - start) / step
		}
	}
	return loopBounds{start: start, step: step, n: n}
}

// hasSyncStmts reports whether the loop body contains ordered-section
// markers placed by the sync-placement pass.
func hasSyncStmts(body ast.Stmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SyncWait, *ast.SyncPost:
			found = true
		}
		return !found
	})
	return found
}

// bodyFn executes a loop body (or other statement) for one of the two
// engines.
type bodyFn func(t *thread, f *frame) ctrl

// parLoop is one engine's executable form of a parallel for loop. The
// parallel-loop machinery (runParallelFor, runTracedFor) is
// engine-agnostic: it reaches the program only through these closures.
type parLoop struct {
	x    *ast.For
	init bodyFn // the initializer; nil when absent
	body bodyFn // one iteration's body
	// seq executes the entire loop sequentially on the calling thread
	// (the engine's sequential-for path), for region recovery and
	// demotion.
	seq bodyFn
	// hdr gives runParallelFor the iteration space; runTracedFor steps
	// the loop with test and post instead (each nil when absent).
	hdr  loopHeader
	test func(t *thread, f *frame) bool
	post cexpr
	// ivReg marks a register-promoted induction variable: its register
	// is kept equal to the private cell in every worker frame and to the
	// final value after the loop.
	ivReg bool
}

// runParallelFor executes a parallel-annotated for loop with
// N = Options.NumThreads simulated threads, one goroutine each.
// Dispatch follows Options.Sched (see sched.go): under the default
// SchedStealing, DOALL loops run on per-worker work-stealing deques
// and DOACROSS loops self-schedule one iteration per grab; SchedStatic
// gives every worker one contiguous chunk of every loop, as the
// paper's Gomp DOALL schedule (§4.3) does; SchedDynamic self-schedules
// everything from a shared counter.
//
// Without Options.Recover the parallel attempt's failures propagate as
// panics (Machine.Run unwraps them into errors); with it, a guard
// abort, worker fault or watchdog timeout rolls the region back to its
// entry snapshot and re-executes just this loop via l.seq, so the run
// survives at O(region) cost. Sequential execution returns whatever
// control outcome the loop produced (a sequential re-execution may
// legally break or return, which a parallel run rejects).
func (t *thread) runParallelFor(f *frame, l *parLoop) ctrl {
	x := l.x
	rc := t.m.recovery
	if rc == nil {
		t.parallelAttempt(f, l)
		return ctrlNext
	}
	if !rc.admit(x.ID) {
		// Demoted: run sequentially without snapshot or region hooks.
		return l.seq(t, f)
	}
	snap := t.beginRegionSnapshot()
	var fail *regionFault
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch v := r.(type) {
			case Abort:
				// The guard monitor aborted at the safe point: a
				// confirmed dependence violation, or — under sampled
				// guarding — a suspicion that may be a sampling artifact
				// and therefore charges no demotion strike.
				kind := FailViolation
				if suspicious(v.Err) {
					kind = FailSuspicion
				}
				fail = &regionFault{kind: kind, err: v.Err}
			case regionFault:
				fail = &v
			default:
				// A fault in region setup (bounds evaluation, spawning)
				// or an interpreter bug — not a contained worker fault.
				// Recovery cannot assume sequential re-execution
				// converges (a zero-step parallel loop re-executed
				// sequentially never terminates), so keep the state and
				// propagate.
				t.m.mem.Commit(snap.ms)
				panic(r)
			}
		}()
		t.parallelAttempt(f, l)
	}()
	if fail == nil {
		// Chaos injection (Options.FaultPlan): an otherwise-committing
		// region may be hit with a spurious suspicion or a forced
		// rollback, exercising the ladder's recovery paths on demand.
		switch {
		case t.m.faults.injectSuspect():
			fail = &regionFault{kind: FailSuspicion,
				err: &SuspicionError{Loop: x.ID, Detail: "injected by fault plan"}}
		case t.m.faults.injectRollback():
			fail = &regionFault{kind: FailFault,
				err: fmt.Errorf("fault plan: injected rollback")}
		}
	}
	if fail == nil {
		pages, bytes := t.m.mem.Commit(snap.ms)
		rc.noteSuccess(x.ID, pages, bytes)
		return ctrlNext
	}
	pages, bytes := t.rollbackRegion(snap)
	rc.noteFailure(x.ID, fail, pages, bytes)
	// Re-execute only this region, sequentially, from the restored
	// pre-region state. On thread 0 the expanded program touches only
	// copy 0 of every expanded structure, so this reproduces native
	// sequential semantics.
	return l.seq(t, f)
}

// parallelAttempt runs one parallel execution of the region. It
// returns normally on success and panics on failure: interp.Abort for
// a guard violation (raised by the monitor's safe-point hook),
// regionFault for a contained worker fault or a watchdog timeout.
func (t *thread) parallelAttempt(f *frame, l *parLoop) {
	x := l.x
	if l.init != nil {
		l.init(t, f)
	}
	lb := t.bounds(f, x, l.hdr)
	iv := x.IndVar
	ivAddr := t.symAddr(f, iv, x.Pos())
	n := lb.n
	nt := t.m.opts.NumThreads
	if h := t.m.opts.Hooks; h != nil && h.ParallelStart != nil {
		h.ParallelStart(x.ID, nt)
	}
	var timedOut atomic.Bool
	t.m.inParallel = true
	defer func() {
		t.m.inParallel = false
		h := t.m.opts.Hooks
		if h == nil {
			return
		}
		if timedOut.Load() || t.m.stop.Load() {
			// The region was abandoned mid-flight (watchdog timeout or
			// machine-level context cancellation): per-thread logs are
			// partial, so the monitor must discard them rather than run
			// its safe-point replay on a truncated schedule.
			if h.ParallelCancel != nil {
				h.ParallelCancel(x.ID)
			}
			return
		}
		if h.ParallelEnd != nil {
			h.ParallelEnd(x.ID)
		}
	}()

	ordered := x.Par == ast.DOACROSS && hasSyncStmts(x.Body)
	var order *orderState
	if ordered {
		order = &orderState{}
	}
	var next atomic.Int64 // the shared counter of self-scheduled loops
	policy := t.m.opts.Sched
	if policy == SchedDynamic && t.m.opts.Hooks != nil && t.m.opts.Hooks.Guarded {
		// Dynamic self-scheduling has no placement guarantee: a
		// slow-starting worker can let a sibling run every iteration,
		// leaving a real cross-iteration dependence on one thread where
		// the monitor honestly cannot see it. Guarded regions therefore
		// run under work stealing (which pins each deque's first grain
		// to its owner, so conflicting iterations are spread across
		// threads) and the substitution is reported as a structured
		// warning rather than silently weakening detection.
		policy = SchedStealing
		t.m.warnf("loop %d: dynamic schedule overridden to work stealing for guarded execution", x.ID)
		if o := t.m.opts.Obs; o != nil {
			o.Emit(obs.Event{Name: "sched-override", Ph: 'i', Loop: x.ID, Iter: -1,
				Label: "dynamic->stealing"})
		}
	}
	var st *stealState
	if x.Par == ast.DOALL && policy == SchedStealing {
		st = newStealState(n, nt)
	}

	workers := make([]*thread, nt)
	for i := 0; i < nt; i++ {
		w, err := t.m.newThread(i)
		if err != nil {
			rterrf(x.Pos(), "spawning thread %d: %v", i, err)
		}
		w.parallel = true
		workers[i] = w
	}

	// Worker-fault containment: the first fault (in iteration order, to
	// match what sequential execution would hit first) cancels the
	// remaining workers at their next safe point — the iteration
	// dispatch, or the ordered-section spin, where a dead predecessor
	// would otherwise leave them waiting forever — and is re-raised on
	// the spawning thread as a positioned runtime error.
	var cancel atomic.Bool
	// Region watchdog: a stuck region (a worker spinning on state a
	// cancelled or misbehaving sibling will never produce) is cancelled
	// at the workers' next safe point — iteration dispatch, the
	// ordered-section spin, or any loop back-edge.
	if d := t.m.opts.RegionTimeout; d > 0 {
		timer := time.AfterFunc(d, func() {
			timedOut.Store(true)
			cancel.Store(true)
		})
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	faults := make([]*workerFault, nt)
	for i := 0; i < nt; i++ {
		w := workers[i]
		w.cancel = &cancel
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(regionCanceled); ok {
						return
					}
					faults[idx] = &workerFault{iter: workers[idx].curIter, tid: idx, val: r}
					cancel.Store(true)
				}
			}()
			// The worker's frame shares the spawning frame's slots and
			// starts from a copy of its registers (see promotableSlots).
			wf := &frame{fn: f.fn, slots: slices.Clone(f.slots), regs: slices.Clone(f.regs)}
			// Private induction variable cell on the worker's stack.
			pvAddr := w.alloca(iv.Type.Size(), x.Pos())
			wf.slots[iv.Index] = pvAddr
			var claim claimer
			switch {
			case st != nil:
				claim = st.claimer(w, x.ID)
			case policy == SchedStatic:
				claim = staticClaimer(n, nt, idx)
			default:
				claim = counterClaimer(&next, n)
			}
			w.runIters(wf, l, lb, pvAddr, claim, order)
		}(i)
	}
	wg.Wait()
	if o := t.m.opts.Obs; o != nil {
		var steals int64
		if st != nil {
			steals = st.steals.Load()
		}
		o.Emit(obs.Event{Name: "sched", Ph: 'i', Loop: x.ID, Iter: -1,
			Label: policy.String(), V1: steals, V2: int64(nt)})
	}

	for _, w := range workers {
		w.cancel = nil
		t.m.mergeCounters(w)
		w.release()
	}
	// Machine-level cancellation takes precedence over any worker fault
	// that raced with it: cancelled workers exit via regionCanceled (no
	// fault recorded), so honoring a raced fault here would make the
	// reported error depend on scheduling. The cancellation propagates
	// as a run-level panic — region recovery must not retry it.
	if t.m.stop.Load() {
		t.raiseCancelled()
	}
	if fault := firstFault(faults); fault != nil {
		if re, ok := fault.val.(RuntimeError); ok {
			// Annotate and re-panic as a contained region failure; the
			// region recovery (or, without one, Machine.Run) turns it
			// into the error callers see. The panic unwinds through the
			// deferred ParallelEnd above, so a guard monitor still gets
			// its safe-point check (a detected dependence violation
			// there takes precedence over the worker fault).
			// The message names the iteration but not the executing
			// worker: the iteration is sequential semantics, while the
			// iteration-to-thread assignment is a scheduling accident
			// (under work stealing it varies run to run), and fault
			// messages must be identical across scheduling policies.
			panic(regionFault{kind: FailFault, err: RuntimeError{Pos: re.Pos,
				Msg: fmt.Sprintf("%s (parallel worker, iteration %d)", re.Msg, fault.iter)}})
		}
		panic(fault.val) // interpreter bug: propagate unchanged
	}
	if timedOut.Load() {
		panic(regionFault{kind: FailTimeout, err: RuntimeError{Pos: x.Pos(),
			Msg: fmt.Sprintf("parallel region timed out after %v", t.m.opts.RegionTimeout)}})
	}
	// Sequential semantics after the loop: the induction variable holds
	// its first value failing the condition.
	final := truncInt(lb.start+n*lb.step, iv.Type)
	t.storeTyped(ivAddr, iv.Type, final)
	if l.ivReg {
		f.regs[iv.Index] = final
	}
}

// workerFault records a panic caught in a parallel worker.
type workerFault struct {
	iter int64
	tid  int
	val  any
}

// regionCanceled is panicked inside a worker whose region was cancelled
// by a sibling's fault; the worker's recover swallows it.
type regionCanceled struct{}

// firstFault selects the fault of the earliest iteration (ties broken
// by thread ID), deterministically matching the fault sequential
// execution would reach first.
func firstFault(faults []*workerFault) *workerFault {
	var first *workerFault
	for _, fa := range faults {
		if fa == nil {
			continue
		}
		if first == nil || fa.iter < first.iter {
			first = fa
		}
	}
	return first
}

// orderState carries the cross-thread ordering of a DOACROSS loop's
// ordered section: ticket is the iteration currently allowed in.
type orderState struct {
	ticket atomic.Int64
}

// syncWait blocks until all earlier iterations have posted. Outside a
// parallel DOACROSS execution it is a no-op.
func (t *thread) syncWait(pos token.Pos) {
	if t.ts != nil {
		t.ts.waitMark = t.counters[CatWork]
		return
	}
	if t.order == nil {
		t.inOrdered = true
		return
	}
	t.counters[CatSync]++
	// Spinning executes no statements, so the MaxOps budget in exec
	// cannot interrupt it: a program whose ordered sections never post
	// (reachable under fuzzing) would hang forever. Bound the spin
	// count by the same budget. Aborting an unlucky legitimate wait
	// early is acceptable — the budget exists only for harnesses that
	// already accept budget aborts.
	spinMax := int64(0)
	if t.m.opts.MaxOps > 0 {
		spinMax = t.m.opts.MaxOps * 4
	}
	spins := int64(0)
	for t.order.ticket.Load() != t.curIter {
		// A sibling worker may have faulted before posting its ticket;
		// spinning on it would deadlock. The cancellation panic is
		// swallowed by the worker's recover in runParallelFor. A
		// machine-level context cancellation interrupts the spin the
		// same way.
		if t.cancel != nil && t.cancel.Load() {
			panic(regionCanceled{})
		}
		if t.m.stop.Load() {
			t.raiseCancelled()
		}
		spins++
		if spinMax > 0 && spins > spinMax {
			rterrf(pos, "operation budget exceeded waiting for ordered section (iteration %d)", t.curIter)
		}
		if spins&63 == 0 {
			runtime.Gosched()
		}
	}
	t.counters[CatWait] += spins
	t.inOrdered = true
}

// syncPost releases the next iteration's ordered section.
func (t *thread) syncPost() {
	if t.ts != nil {
		t.ts.postMark = t.counters[CatWork]
		t.posted = true
		return
	}
	if t.order == nil {
		t.posted = true
		t.inOrdered = false
		return
	}
	t.counters[CatSync]++
	t.order.ticket.Store(t.curIter + 1)
	t.posted = true
	t.inOrdered = false
}
