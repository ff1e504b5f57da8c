package interp

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
)

func (t *thread) execBlock(f *frame, b *ast.Block) ctrl {
	mark := t.sp
	for _, s := range b.Stmts {
		if c := t.exec(f, s); c != ctrlNext {
			t.sp = mark
			return c
		}
	}
	t.sp = mark
	return ctrlNext
}

// assertTree panics when a machine running a compiled engine reaches
// the tree-walker. The compiled engine stands alone; every parity test
// and fuzz target that runs one pins that through this check.
func (t *thread) assertTree() {
	if t.m.code != nil {
		panic("interp: tree-walker entered under a compiled engine")
	}
}

func (t *thread) exec(f *frame, s ast.Stmt) ctrl {
	t.assertTree()
	t.counters[CatWork]++
	if max := t.m.opts.MaxOps; max > 0 && t.counters[CatWork] > max {
		rterrf(s.Pos(), "operation budget exceeded (%d ops)", max)
	}
	// Statement boundaries are cooperative-cancellation safe points
	// (Options.Ctx): the stop flag stays false for the whole run unless
	// a context watcher is armed, so this is one predictable branch.
	if t.m.stop.Load() {
		t.raiseCancelled()
	}
	switch x := s.(type) {
	case *ast.Block:
		return t.execBlock(f, x)

	case *ast.DeclStmt:
		for _, d := range x.Decls {
			t.execDecl(f, d)
		}
		return ctrlNext

	case *ast.ExprStmt:
		t.eval(f, x.X)
		return ctrlNext

	case *ast.If:
		if truth(t.eval(f, x.Cond), x.Cond.ExprType()) {
			return t.exec(f, x.Then)
		}
		if x.Else != nil {
			return t.exec(f, x.Else)
		}
		return ctrlNext

	case *ast.While:
		h := t.m.opts.Hooks
		if h != nil && t.isMain && h.LoopEnter != nil {
			h.LoopEnter(x.ID)
		}
		var iter int64
		for {
			// A cancelled region (sibling fault or watchdog timeout)
			// must be able to interrupt a worker stuck in a MiniC-level
			// loop, so every loop back-edge is a safe point.
			if t.cancel != nil && t.cancel.Load() {
				panic(regionCanceled{})
			}
			// The iteration hook fires before the condition so the
			// profiler attributes condition loads to the iteration
			// they guard (see package profile).
			if h != nil && t.isMain && h.LoopIter != nil {
				h.LoopIter(x.ID, iter)
			}
			iter++
			if !truth(t.eval(f, x.Cond), x.Cond.ExprType()) {
				break
			}
			c := t.exec(f, x.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c
			}
		}
		if h != nil && t.isMain && h.LoopExit != nil {
			h.LoopExit(x.ID)
		}
		return ctrlNext

	case *ast.DoWhile:
		h := t.m.opts.Hooks
		if h != nil && t.isMain && h.LoopEnter != nil {
			h.LoopEnter(x.ID)
		}
		var iter int64
		for {
			if t.cancel != nil && t.cancel.Load() {
				panic(regionCanceled{}) // cancelled region: see While
			}
			if h != nil && t.isMain && h.LoopIter != nil {
				h.LoopIter(x.ID, iter)
			}
			iter++
			c := t.exec(f, x.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c
			}
			if !truth(t.eval(f, x.Cond), x.Cond.ExprType()) {
				break
			}
		}
		if h != nil && t.isMain && h.LoopExit != nil {
			h.LoopExit(x.ID)
		}
		return ctrlNext

	case *ast.For:
		if x.Par != ast.Sequential && !t.parallel && t.ts == nil {
			if t.m.opts.TraceParallel {
				return t.runTracedFor(f, treeParLoop(x))
			}
			if (t.m.opts.NumThreads > 1 || t.m.opts.ParallelizeSingle) && !t.m.opts.ForceSequential {
				return t.runParallelFor(f, treeParLoop(x))
			}
		}
		return t.execSeqFor(f, x)

	case *ast.Return:
		if x.X != nil {
			t.retVal = convert(t.eval(f, x.X), x.X.ExprType(), f.fn.Ret)
		} else {
			t.retVal = value{}
		}
		return ctrlReturn

	case *ast.Break:
		return ctrlBreak

	case *ast.Continue:
		return ctrlContinue

	case *ast.SyncWait:
		t.syncWait(x.Pos())
		return ctrlNext

	case *ast.SyncPost:
		t.syncPost()
		return ctrlNext
	}
	rterrf(s.Pos(), "cannot execute statement")
	return ctrlNext
}

func (t *thread) execDecl(f *frame, d *ast.VarDecl) {
	size := int64(0)
	ty := d.Type
	if d.VLALen != nil {
		n := t.eval(f, d.VLALen).I
		if n < 0 {
			rterrf(d.Pos(), "negative array length %d for %s", n, d.Name)
		}
		elem := ty.Elem.Size()
		size = n * elem
		if size == 0 {
			size = 1
		}
	} else {
		size = ty.Size()
	}
	a := t.alloca(size, d.Pos())
	f.slots[d.Sym.Index] = a
	// The declaration defines a fresh zeroed object; report it to the
	// profiler so reused stack addresses carry no stale history.
	if h := t.m.opts.Hooks; h != nil {
		if h.Store != nil && t.isMain {
			h.Store(d.Acc.Store, a, size)
		}
		if h.Observe != nil && t.observeOK(h, a, size) {
			h.Observe(Access{Site: d.Acc.Store, Addr: a, Size: size, Tid: t.tid,
				Iter: t.curIter, Store: true, Def: true, Ordered: t.inOrdered})
		}
	}
	if d.Init != nil {
		if ty.Kind == ctypes.Struct {
			src := t.eval(f, d.Init).I
			t.m.mem.Memcpy(a, src, ty.Size())
		} else {
			v := convert(t.eval(f, d.Init), d.Init.ExprType(), ty)
			t.storeTyped(a, ty, v)
		}
	}
}

// treeExpr evaluates e with the tree-walker.
func treeExpr(e ast.Expr) cexpr {
	return func(t *thread, f *frame) value { return t.eval(f, e) }
}

// treeParLoop feeds the parallel-loop drivers the tree-walker's
// closures for x.
func treeParLoop(x *ast.For) *parLoop {
	l := &parLoop{
		x:    x,
		body: func(t *thread, f *frame) ctrl { return t.exec(f, x.Body) },
		seq:  func(t *thread, f *frame) ctrl { return t.execSeqFor(f, x) },
		hdr:  newLoopHeader(x, treeExpr),
	}
	if x.Init != nil {
		l.init = func(t *thread, f *frame) ctrl { return t.exec(f, x.Init) }
	}
	if x.Cond != nil {
		l.test = func(t *thread, f *frame) bool { return truth(t.eval(f, x.Cond), x.Cond.ExprType()) }
	}
	if x.Post != nil {
		l.post = treeExpr(x.Post)
	}
	return l
}

// execSeqFor runs a for loop sequentially (also used for parallel
// loops under one thread or ForceSequential).
func (t *thread) execSeqFor(f *frame, x *ast.For) ctrl {
	mark := t.sp
	defer func() { t.sp = mark }()
	if x.Init != nil {
		if c := t.exec(f, x.Init); c != ctrlNext {
			return c
		}
	}
	h := t.m.opts.Hooks
	if h != nil && t.isMain && h.LoopEnter != nil {
		h.LoopEnter(x.ID)
	}
	var iter int64
	for {
		if t.cancel != nil && t.cancel.Load() {
			panic(regionCanceled{}) // cancelled region: see While in exec
		}
		// Fire the iteration hook before the condition so the profiler
		// attributes condition and post-expression accesses to the
		// iteration they belong to (see package profile).
		if h != nil && t.isMain && h.LoopIter != nil {
			h.LoopIter(x.ID, iter)
		}
		if x.Cond != nil && !truth(t.eval(f, x.Cond), x.Cond.ExprType()) {
			break
		}
		// A sequentially executed DOACROSS body still runs its
		// SyncWait/SyncPost statements; they are no-ops without an
		// order (syncWait checks t.order first). Crucially, no
		// bookkeeping may happen here: this path also executes nested
		// parallel loops inside a worker's iteration, and touching
		// t.curIter would corrupt the worker's ordered-section ticket.
		iter++
		c := t.exec(f, x.Body)
		if c == ctrlBreak {
			break
		}
		if c == ctrlReturn {
			return c
		}
		if x.Post != nil {
			t.eval(f, x.Post)
		}
	}
	if h != nil && t.isMain && h.LoopExit != nil {
		h.LoopExit(x.ID)
	}
	return ctrlNext
}
