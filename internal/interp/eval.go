package interp

// The tree-walking engine (EngineTree) lives in eval.go, exec.go and
// builtin.go. It re-dispatches on the AST at every evaluation and is
// the reference the compiled engine is held to: the parity suites, the
// fuzz targets and perfbench's reference outputs compare against it.
// A compiled-engine run never enters it (see assertTree).

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// loadAccess performs the load belonging to access site, applying the
// profiling and redirection hooks (accessHooks is nil when the chain
// carries none, keeping purely region-level layers off this path).
func (t *thread) loadAccess(pos token.Pos, site int, addr int64, ty *ctypes.Type) value {
	t.touchCache(addr)
	size := ty.Size()
	if h := t.m.accessHooks; h != nil {
		if h.Redirect != nil {
			var cost int64
			addr, cost = h.Redirect(site, addr, size, t.tid)
			t.counters[CatWork] += cost
		}
		t.checkAccess(pos, addr, size)
		if h.Load != nil && t.isMain {
			h.Load(site, addr, size)
		}
		if h.Observe != nil && t.observeOK(h, addr, size) {
			h.Observe(Access{Site: site, Addr: addr, Size: size, Tid: t.tid,
				Iter: t.curIter, Ordered: t.inOrdered})
		}
	} else {
		t.checkAccess(pos, addr, size)
	}
	return t.loadTyped(addr, ty)
}

// storeAccess performs the store belonging to access site.
func (t *thread) storeAccess(pos token.Pos, site int, addr int64, ty *ctypes.Type, v value) {
	t.touchCache(addr)
	size := ty.Size()
	if h := t.m.accessHooks; h != nil {
		if h.Redirect != nil {
			var cost int64
			addr, cost = h.Redirect(site, addr, size, t.tid)
			t.counters[CatWork] += cost
		}
		t.checkAccess(pos, addr, size)
		if h.Store != nil && t.isMain {
			h.Store(site, addr, size)
		}
		if h.Observe != nil && t.observeOK(h, addr, size) {
			h.Observe(Access{Site: site, Addr: addr, Size: size, Tid: t.tid,
				Iter: t.curIter, Store: true, Ordered: t.inOrdered})
		}
	} else {
		t.checkAccess(pos, addr, size)
	}
	t.storeTyped(addr, ty, v)
}

// addr computes the lvalue address of e.
func (t *thread) addr(f *frame, e ast.Expr) int64 {
	t.assertTree()
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Sym.Kind {
		case ast.SymTID, ast.SymNTH:
			rterrf(x.Pos(), "%s has no address", x.Name)
		}
		return t.symAddr(f, x.Sym, x.Pos())
	case *ast.Index:
		base := t.evalBase(f, x.X)
		idx := t.eval(f, x.I)
		elem := x.ExprType()
		return base + idx.I*sizeOfElem(elem, x.Pos())
	case *ast.Member:
		var base int64
		if x.Arrow {
			base = t.eval(f, x.X).I
			if base == 0 {
				rterrf(x.Pos(), "null pointer dereference (->%s)", x.Name)
			}
		} else if _, isCall := x.X.(*ast.Call); isCall {
			// Field of a struct-returning call: the call evaluates to
			// the address of a temporary copy.
			base = t.eval(f, x.X).I
		} else {
			base = t.addr(f, x.X)
		}
		return base + x.Field.Offset
	case *ast.Unary:
		if x.Op == token.MUL {
			p := t.eval(f, x.X)
			if p.I == 0 {
				rterrf(x.Pos(), "null pointer dereference")
			}
			return p.I
		}
	}
	rterrf(e.Pos(), "expression has no address")
	return 0
}

// evalBase evaluates an expression used as an indexing/pointer base:
// arrays yield their address, pointers their value.
func (t *thread) evalBase(f *frame, e ast.Expr) int64 {
	ty := e.ExprType()
	if ty != nil && ty.Kind == ctypes.Array {
		return t.addr(f, e)
	}
	return t.eval(f, e).I
}

// eval computes the rvalue of e.
func (t *thread) eval(f *frame, e ast.Expr) value {
	t.assertTree()
	t.counters[CatWork]++
	switch x := e.(type) {
	case *ast.IntLit:
		return iv(x.Value)
	case *ast.FloatLit:
		return fv(x.Value)
	case *ast.StringLit:
		return iv(t.m.internString(x.Value))

	case *ast.Ident:
		switch x.Sym.Kind {
		case ast.SymTID:
			return iv(int64(t.tid))
		case ast.SymNTH:
			return iv(int64(t.m.opts.NumThreads))
		case ast.SymFunc, ast.SymBuiltin:
			rterrf(x.Pos(), "function %s used as a value", x.Name)
		}
		// Arrays and structs evaluate to their address; struct values
		// are copied by the consumer (assignment, call, return).
		if k := x.Sym.Type.Kind; k == ctypes.Array || k == ctypes.Struct {
			return iv(t.symAddr(f, x.Sym, x.Pos()))
		}
		a := t.symAddr(f, x.Sym, x.Pos())
		return t.loadAccess(x.Pos(), x.Acc.Load, a, x.Sym.Type)

	case *ast.Unary:
		return t.evalUnary(f, x)

	case *ast.Binary:
		return t.evalBinary(f, x)

	case *ast.Logical:
		xv := t.eval(f, x.X)
		if x.Op == token.LAND {
			if !truth(xv, x.X.ExprType()) {
				return iv(0)
			}
		} else {
			if truth(xv, x.X.ExprType()) {
				return iv(1)
			}
		}
		if truth(t.eval(f, x.Y), x.Y.ExprType()) {
			return iv(1)
		}
		return iv(0)

	case *ast.Cond:
		if truth(t.eval(f, x.C), x.C.ExprType()) {
			return convert(t.eval(f, x.Then), x.Then.ExprType(), x.ExprType())
		}
		return convert(t.eval(f, x.Else), x.Else.ExprType(), x.ExprType())

	case *ast.Assign:
		return t.evalAssign(f, x)

	case *ast.IncDec:
		return t.evalIncDec(f, x)

	case *ast.Index:
		if k := x.ExprType().Kind; k == ctypes.Array || k == ctypes.Struct {
			return iv(t.addr(f, x)) // address only; consumer copies structs
		}
		a := t.addr(f, x)
		return t.loadAccess(x.Pos(), x.Acc.Load, a, x.ExprType())

	case *ast.Member:
		if k := x.ExprType().Kind; k == ctypes.Array || k == ctypes.Struct {
			return iv(t.addr(f, x))
		}
		a := t.addr(f, x)
		return t.loadAccess(x.Pos(), x.Acc.Load, a, x.ExprType())

	case *ast.Call:
		return t.evalCall(f, x)

	case *ast.Cast:
		return convert(t.eval(f, x.X), x.X.ExprType(), x.To)

	case *ast.SizeofType:
		return iv(x.Of.Size())

	case *ast.SizeofExpr:
		return iv(x.X.ExprType().Size())
	}
	rterrf(e.Pos(), "cannot evaluate expression")
	return value{}
}

func (t *thread) evalUnary(f *frame, x *ast.Unary) value {
	switch x.Op {
	case token.AND:
		return iv(t.addr(f, x.X))
	case token.MUL:
		if k := x.ExprType().Kind; k == ctypes.Array || k == ctypes.Struct {
			return iv(t.addr(f, x))
		}
		a := t.addr(f, x)
		return t.loadAccess(x.Pos(), x.Acc.Load, a, x.ExprType())
	case token.SUB:
		v := t.eval(f, x.X)
		if x.ExprType().IsFloat() {
			return fv(-toFloat(v, x.X.ExprType()))
		}
		return truncInt(-v.I, x.ExprType())
	case token.ADD:
		return convert(t.eval(f, x.X), x.X.ExprType(), x.ExprType())
	case token.NOT:
		return truncInt(^t.eval(f, x.X).I, x.ExprType())
	case token.LNOT:
		if truth(t.eval(f, x.X), x.X.ExprType()) {
			return iv(0)
		}
		return iv(1)
	}
	rterrf(x.Pos(), "bad unary operator %s", x.Op)
	return value{}
}

func (t *thread) evalBinary(f *frame, x *ast.Binary) value {
	xt, yt := x.X.ExprType(), x.Y.ExprType()
	xIsPtr := xt.Kind == ctypes.Ptr || xt.Kind == ctypes.Array
	yIsPtr := yt.Kind == ctypes.Ptr || yt.Kind == ctypes.Array

	// Pointer arithmetic and pointer comparison.
	if xIsPtr || yIsPtr {
		var xv, yv int64
		if xIsPtr {
			xv = t.evalBase(f, x.X)
		} else {
			xv = t.eval(f, x.X).I
		}
		if yIsPtr {
			yv = t.evalBase(f, x.Y)
		} else {
			yv = t.eval(f, x.Y).I
		}
		switch x.Op {
		case token.ADD:
			if xIsPtr {
				return iv(xv + yv*ptrElemSize(xt, x.Pos()))
			}
			return iv(yv + xv*ptrElemSize(yt, x.Pos()))
		case token.SUB:
			if xIsPtr && yIsPtr {
				return iv((xv - yv) / ptrElemSize(xt, x.Pos()))
			}
			return iv(xv - yv*ptrElemSize(xt, x.Pos()))
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return cmpInt(x.Op, xv, yv, false)
		}
		rterrf(x.Pos(), "bad pointer operation %s", x.Op)
	}

	common := ctypes.Common(xt, yt)
	xv := convert(t.eval(f, x.X), xt, common)
	yv := convert(t.eval(f, x.Y), yt, common)

	if common.IsFloat() {
		a, b := xv.F, yv.F
		switch x.Op {
		case token.ADD:
			return fv(a + b)
		case token.SUB:
			return fv(a - b)
		case token.MUL:
			return fv(a * b)
		case token.QUO:
			return fv(a / b)
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return cmpFloat(x.Op, a, b)
		}
		rterrf(x.Pos(), "bad float operation %s", x.Op)
	}

	a, b := xv.I, yv.I
	rt := x.ExprType()
	switch x.Op {
	case token.ADD:
		return truncInt(a+b, rt)
	case token.SUB:
		return truncInt(a-b, rt)
	case token.MUL:
		return truncInt(a*b, rt)
	case token.QUO:
		if b == 0 {
			rterrf(x.Pos(), "integer division by zero")
		}
		if common.Unsigned {
			return truncInt(int64(uint64(a)/uint64(b)), rt)
		}
		return truncInt(a/b, rt)
	case token.REM:
		if b == 0 {
			rterrf(x.Pos(), "integer modulo by zero")
		}
		if common.Unsigned {
			return truncInt(int64(uint64(a)%uint64(b)), rt)
		}
		return truncInt(a%b, rt)
	case token.SHL:
		return truncInt(a<<uint(b&63), rt)
	case token.SHR:
		if xt.Unsigned {
			// Width-correct logical shift for the promoted operand.
			switch promSize(xt) {
			case 4:
				return truncInt(int64(uint32(a)>>uint(b&63)), rt)
			default:
				return truncInt(int64(uint64(a)>>uint(b&63)), rt)
			}
		}
		return truncInt(a>>uint(b&63), rt)
	case token.AND:
		return truncInt(a&b, rt)
	case token.OR:
		return truncInt(a|b, rt)
	case token.XOR:
		return truncInt(a^b, rt)
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return cmpInt(x.Op, a, b, common.Unsigned)
	}
	rterrf(x.Pos(), "bad integer operation %s", x.Op)
	return value{}
}

func (t *thread) evalAssign(f *frame, x *ast.Assign) value {
	lt := x.LHS.ExprType()

	// Whole-struct assignment is a memcpy.
	if lt.Kind == ctypes.Struct && x.Op == token.ASSIGN {
		dst := t.addr(f, x.LHS)
		src := t.eval(f, x.RHS).I
		size := lt.Size()
		t.touchCache(src)
		t.touchCache(dst)
		if h := t.m.opts.Hooks; h != nil {
			if h.Redirect != nil {
				var c1, c2 int64
				src, c1 = h.Redirect(loadSite(x.RHS), src, size, t.tid)
				dst, c2 = h.Redirect(storeSite(x.LHS), dst, size, t.tid)
				t.counters[CatWork] += c1 + c2
			}
			t.checkAccess(x.Pos(), src, size)
			t.checkAccess(x.Pos(), dst, size)
			if t.isMain {
				if h.Load != nil {
					h.Load(loadSite(x.RHS), src, size)
				}
				if h.Store != nil {
					h.Store(storeSite(x.LHS), dst, size)
				}
			}
			if h.Observe != nil {
				h.Observe(Access{Site: loadSite(x.RHS), Addr: src, Size: size, Tid: t.tid,
					Iter: t.curIter, Ordered: t.inOrdered})
				h.Observe(Access{Site: storeSite(x.LHS), Addr: dst, Size: size, Tid: t.tid,
					Iter: t.curIter, Store: true, Ordered: t.inOrdered})
			}
		} else {
			t.checkAccess(x.Pos(), src, size)
			t.checkAccess(x.Pos(), dst, size)
		}
		t.m.mem.Memcpy(dst, src, size)
		return iv(dst)
	}

	a := t.addr(f, x.LHS)
	var nv value
	if x.Op == token.ASSIGN {
		nv = convert(t.eval(f, x.RHS), x.RHS.ExprType(), lt)
	} else {
		old := t.loadAccess(x.Pos(), loadSite(x.LHS), a, lt)
		rv := t.eval(f, x.RHS)
		nv = compound(x.Pos(), x.Op.CompoundOp(), old, rv, lt, x.RHS.ExprType())
	}
	t.storeAccess(x.Pos(), storeSite(x.LHS), a, lt, nv)
	return nv
}

func (t *thread) evalIncDec(f *frame, x *ast.IncDec) value {
	ty := x.ExprType()
	a := t.addr(f, x.X)
	old := t.loadAccess(x.Pos(), loadSite(x.X), a, ty)
	var nv value
	switch {
	case ty.Kind == ctypes.Ptr:
		d := sizeOfElem(ty.Elem, x.Pos())
		if x.Op == token.DEC {
			d = -d
		}
		nv = iv(old.I + d)
	case ty.IsFloat():
		d := 1.0
		if x.Op == token.DEC {
			d = -1
		}
		nv = convert(fv(old.F+d), ctypes.DoubleType, ty)
	default:
		d := int64(1)
		if x.Op == token.DEC {
			d = -1
		}
		nv = convert(iv(old.I+d), ctypes.LongType, ty)
	}
	t.storeAccess(x.Pos(), storeSite(x.X), a, ty, nv)
	if x.Post {
		return old
	}
	return nv
}
