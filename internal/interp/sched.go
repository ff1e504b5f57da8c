package interp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gdsx/internal/ast"
	"gdsx/internal/obs"
)

// SchedPolicy selects how parallel-loop iterations are dispatched to
// the simulated threads.
type SchedPolicy int

const (
	// SchedStealing (the default) runs DOALL loops on a work-stealing
	// scheduler: each worker starts with the contiguous chunk static
	// scheduling would give it, consumes it from the front in
	// grain-sized pieces, and — once out of work — steals the upper
	// half of a victim's remaining range, always choosing the lowest
	// range that still lies above its own last executed iteration.
	// That floor keeps every thread's executed iterations strictly
	// increasing under any interleaving, which the guard monitor's
	// replay relies on: same-thread accesses are serialized in
	// iteration order, exactly as under static scheduling. DOACROSS
	// loops self-schedule one iteration per grab from a shared
	// counter, entering ordered sections in iteration order.
	SchedStealing SchedPolicy = iota
	// SchedStatic is the pre-stealing scheduler: contiguous static
	// chunks for every parallel loop (with DOACROSS ordered sections
	// still entered in iteration order via tickets).
	SchedStatic
	// SchedDynamic self-schedules every parallel loop from a shared
	// counter, one iteration per grab (the pre-stealing DOACROSS
	// scheduler, applied to DOALL too).
	SchedDynamic
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedStatic:
		return "static"
	case SchedDynamic:
		return "dynamic"
	}
	return "stealing"
}

// SchedFromString parses a scheduler name ("stealing", "static",
// "dynamic", or "" for the default).
func SchedFromString(s string) (SchedPolicy, bool) {
	switch s {
	case "", "stealing":
		return SchedStealing, true
	case "static":
		return SchedStatic, true
	case "dynamic":
		return SchedDynamic, true
	}
	return SchedStealing, false
}

// stealDeque is one worker's range of unclaimed iterations. The owner
// takes grain-sized pieces from the front; thieves take the upper half
// of the stealable remainder from the back. A mutex (not a lock-free
// deque) is deliberate: operations move whole ranges, so the lock is
// taken once per O(grain) iterations and is almost always uncontended
// — the scalability win comes from there being one deque per worker,
// not from the deque's internals.
type stealDeque struct {
	mu sync.Mutex
	// [lo, hi) is the unclaimed range; iterations below pin may only
	// be taken by the owner.
	lo, hi, pin int64
	_           [4]int64 // keep neighbouring deques off one cache line
}

// take claims up to grain iterations from the front of the deque for
// its owner.
func (d *stealDeque) take(grain int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, 0, false
	}
	lo = d.lo
	hi = min(lo+grain, d.hi)
	d.lo = hi
	d.mu.Unlock()
	return lo, hi, true
}

// steal claims the upper half of the deque's stealable remainder,
// provided it starts above the thief's floor (the last iteration the
// thief executed). The floor keeps each thread's executed iterations
// strictly increasing — the monotonicity every dispatch policy
// guarantees and the guard monitor's replay depends on.
func (d *stealDeque) steal(floor int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	avail := d.hi - max(d.lo, d.pin)
	if avail <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	k := (avail + 1) / 2
	lo, hi = d.hi-k, d.hi
	if lo <= floor {
		d.mu.Unlock()
		return 0, 0, false
	}
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// peek reports the start of the range steal would claim, without
// claiming it.
func (d *stealDeque) peek(floor int64) (lo int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := d.hi - max(d.lo, d.pin)
	if avail <= 0 {
		return 0, false
	}
	lo = d.hi - (avail+1)/2
	return lo, lo > floor
}

// put installs a stolen range as the deque's new content (the deque is
// empty when the owner resorts to stealing). Stolen ranges carry no
// pin: they may be re-stolen in their entirety.
func (d *stealDeque) put(lo, hi int64) {
	d.mu.Lock()
	d.lo, d.hi, d.pin = lo, hi, lo
	d.mu.Unlock()
}

// stealState is the shared state of one work-stealing DOALL region.
type stealState struct {
	deques []stealDeque
	grain  int64 // iterations an owner takes from its deque at once
	// remaining counts iterations still in some deque; an idle worker
	// with no steal target retires once it reaches zero (until then a
	// thief's put may yet hand out an eligible range).
	remaining atomic.Int64
	// steals counts successful steals, for the region's obs summary.
	steals atomic.Int64
}

// stealGrainDiv sets the stealing granularity: a worker claims its own
// iterations in pieces of roughly share/stealGrainDiv, bounding both
// dispatch overhead (O(stealGrainDiv) deque operations per worker) and
// the work a thief cannot take from a nearly-done victim.
const stealGrainDiv = 8

// staticRange is worker tid's share of n iterations under the
// contiguous partition every policy starts from: the first n%nt
// workers get one iteration more than the rest.
func staticRange(n int64, nt, tid int) (lo, hi int64) {
	chunk, rem, t := n/int64(nt), n%int64(nt), int64(tid)
	lo = t*chunk + min(t, rem)
	hi = lo + chunk
	if t < rem {
		hi++
	}
	return lo, hi
}

// newStealState builds the initial deques: the static partition, with
// each worker's first grain iterations pinned. The pin guarantees
// every worker executes at least one iteration of its own share even
// when the host serializes the goroutines (one worker would otherwise
// race ahead and steal everything), which keeps cross-thread effects —
// the guard monitor's whole subject — reproducible across hosts.
func newStealState(n int64, nt int) *stealState {
	st := &stealState{deques: make([]stealDeque, nt), grain: max(1, (n/int64(nt))/stealGrainDiv)}
	st.remaining.Store(n)
	for t := range st.deques {
		d := &st.deques[t]
		d.lo, d.hi = staticRange(n, nt, t)
		d.pin = min(d.lo+st.grain, d.hi)
	}
	return st
}

// claimer hands one worker its next range of iterations [lo, hi);
// last is the last iteration the worker executed (-1 before its
// first), and ok is false once the worker has no more work.
type claimer func(last int64) (lo, hi int64, ok bool)

// staticClaimer hands worker tid its static share, once.
func staticClaimer(n int64, nt, tid int) claimer {
	done := false
	return func(int64) (lo, hi int64, ok bool) {
		if done {
			return 0, 0, false
		}
		done = true
		lo, hi = staticRange(n, nt, tid)
		return lo, hi, true
	}
}

// counterClaimer self-schedules one iteration per grab from the shared
// counter next (the paper's DOACROSS chunk 1).
func counterClaimer(next *atomic.Int64, n int64) claimer {
	return func(int64) (lo, hi int64, ok bool) {
		lo = next.Add(1) - 1
		return lo, lo + 1, lo < n
	}
}

// claimer hands worker w grains of its own deque and, once that is
// empty, steals. It picks the victim whose stolen range would start
// lowest among those above the floor (w's last executed iteration):
// taking the lowest eligible range first preserves w's eligibility for
// the others. With no eligible range anywhere it waits for the region
// to drain (or for a cancellation).
func (st *stealState) claimer(w *thread, loop int) claimer {
	own := &st.deques[w.tid]
	o := w.m.opts.Obs
	return func(last int64) (lo, hi int64, ok bool) {
		for {
			if lo, hi, ok = own.take(st.grain); ok {
				st.remaining.Add(lo - hi)
				return lo, hi, true
			}
			if w.cancel != nil && w.cancel.Load() {
				return 0, 0, false
			}
			if w.m.stop.Load() {
				return 0, 0, false // machine-level cancellation: see parallelAttempt
			}
			best, bestLo := -1, int64(0)
			for v := range st.deques {
				if v == w.tid {
					continue
				}
				if plo, pok := st.deques[v].peek(last); pok && (best < 0 || plo < bestLo) {
					best, bestLo = v, plo
				}
			}
			if best < 0 {
				if st.remaining.Load() <= 0 {
					return 0, 0, false
				}
				runtime.Gosched()
				continue
			}
			// A raced-away range just means another sweep.
			if slo, shi, sok := st.deques[best].steal(last); sok {
				st.steals.Add(1)
				if o != nil {
					o.Counter("sched.steals").Inc()
					o.Emit(obs.Event{Name: "steal", Ph: 'i', Tid: w.tid,
						Loop: loop, Iter: slo, Label: "doall", V1: int64(best), V2: shi - slo})
				}
				own.put(slo, shi)
			}
		}
	}
}

// runIters is the one per-iteration dispatch loop of every policy: it
// executes the ranges claim hands the worker until claim runs dry or
// the region is cancelled. Dispatch is charged as one CatSync op per
// worker for DOALL and one per iteration for DOACROSS under every
// policy, so counters are identical across policies. A DOACROSS
// iteration that skipped its ordered section posts at its end, so
// later iterations are not blocked forever.
func (w *thread) runIters(f *frame, l *parLoop, lb loopBounds, pvAddr int64, claim claimer, order *orderState) {
	x, body := l.x, l.body
	iv := x.IndVar
	doall := x.Par == ast.DOALL
	w.order = order
	var iterStart, iterEnd func(loopID int, iter int64, tid int)
	if h := w.m.opts.Hooks; h != nil {
		iterStart, iterEnd = h.IterStart, h.IterEnd
	}
	if doall {
		w.counters[CatSync]++
	}
	last := int64(-1)
	for {
		lo, hi, ok := claim(last)
		if !ok {
			return
		}
		for k := lo; k < hi; k++ {
			if w.cancel != nil && w.cancel.Load() {
				return // a sibling worker faulted; stop at the safe point
			}
			if !doall {
				w.counters[CatSync]++
				w.posted = false
				w.inOrdered = false
			}
			w.curIter = k
			last = k
			ivv := truncInt(lb.start+k*lb.step, iv.Type)
			w.storeTyped(pvAddr, iv.Type, ivv)
			if l.ivReg {
				f.regs[iv.Index] = ivv
			}
			if iterStart != nil {
				iterStart(x.ID, k, w.tid)
			}
			c := body(w, f)
			if iterEnd != nil {
				iterEnd(x.ID, k, w.tid)
			}
			switch {
			case c == ctrlBreak && doall:
				rterrf(x.Pos(), "break out of a parallel loop")
			case c == ctrlReturn && doall:
				rterrf(x.Pos(), "return out of a parallel loop")
			case c == ctrlBreak || c == ctrlReturn:
				rterrf(x.Pos(), "break/return out of a parallel loop")
			}
			if order != nil && !w.posted {
				w.syncPost()
			}
		}
	}
}
