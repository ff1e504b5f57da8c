package expand

import (
	"fmt"

	"gdsx/internal/alias"
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// ptrPlan captures, before any mutation, everything the redirection
// pass needs about one pointer-based private access: the element size
// of the dereferenced pointer and how to obtain its span (a constant,
// or the span field of a promoted root slot).
type ptrPlan struct {
	site     int
	node     ast.Expr     // the access node (Index, Member-arrow or Unary-deref)
	basePtr  ast.Expr     // the original pointer operand
	elem     int64        // byte size of the pointee element
	elemType *ctypes.Type // pointee type (for hoisted temporaries)
	hasConst bool         // span is a compile-time constant
	constVal int64        // the constant span, resolved by resolveConstPlans
	root     slot         // valid if !hasConst
	rootExpr ast.Expr
}

// resolveConstPlans computes the constant span values: after promotion
// (struct sizes final) and before Table 1 expansion (allocation sizes
// still original).
func (p *pass) resolveConstPlans() error {
	for _, plan := range p.ptrPlans {
		if !plan.hasConst {
			continue
		}
		as := p.in.Info.Accesses[plan.site]
		S, ok := commonSize(p.in, p.in.Alias.PointsTo(plan.basePtr))
		if !ok {
			return fmt.Errorf("expand: %s: span of %q is no longer a common constant after promotion",
				as.Pos, as.Text)
		}
		if S%plan.elem != 0 {
			return fmt.Errorf("expand: %s: span %d not divisible by element size %d",
				as.Pos, S, plan.elem)
		}
		plan.constVal = S
	}
	return nil
}

// computePromotion decides which pointer slots become fat pointers:
// the roots of redirected private accesses whose span is not a
// compile-time constant (§3.4 ConstSpan), closed backwards over every
// assignment that flows pointers into a promoted slot (so that
// Table 3's p.span = q.span always has a q.span to read).
func (p *pass) computePromotion() error {
	p.promote = map[slot]bool{}
	p.constSpan = map[slot]int64{}

	var work []slot
	mark := func(s slot) {
		if !p.promote[s] {
			p.promote[s] = true
			work = append(work, s)
		}
	}

	// Seeds: pointer-based private accesses that will be redirected.
	for _, site := range p.privateSites() {
		if p.skipSites[site] {
			continue
		}
		as := p.in.Info.Accesses[site]
		node, ok := as.Node.(ast.Expr)
		if !ok {
			continue
		}
		base, err := p.baseOf(node)
		if err != nil {
			return fmt.Errorf("%s: %v", as.Pos, err)
		}
		if base.varSym != nil {
			continue // variable-based: redirected without spans
		}
		elem, elemType, err := pointeeSize(base.ptr)
		if err != nil {
			return fmt.Errorf("%s: access %q: %v", as.Pos, as.Text, err)
		}
		plan := &ptrPlan{site: site, node: node, basePtr: base.ptr, elem: elem, elemType: elemType}
		if _, ok := p.constSpanOfExpr(base.ptr); ok && p.opts.ConstSpan {
			plan.hasConst = true
		} else {
			root, rootExpr, err := p.rootSlot(base.ptr)
			if err != nil {
				return fmt.Errorf("%s: access %q: %v", as.Pos, as.Text, err)
			}
			plan.root, plan.rootExpr = root, rootExpr
			mark(root)
		}
		p.ptrPlans = append(p.ptrPlans, plan)
	}

	// Unoptimized mode (paper Fig. 9a) promotes every pointer that may
	// reach an expanded structure, not only the ones redirection needs.
	if !p.opts.ConstSpan {
		if err := p.addUnoptimizedPromotions(); err != nil {
			return err
		}
		work = p.promotedSlots()
	}

	// Backward closure over pointer assignments.
	flows := p.collectFlows()
	seen := map[slot]bool{}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		for _, rhs := range flows[s] {
			roots, err := p.spanSourceRoots(rhs)
			if err != nil {
				return err
			}
			for _, r := range roots {
				if p.opts.ConstSpan {
					if _, ok := p.slotConstSpan(r); ok {
						continue
					}
				}
				mark(r)
			}
		}
	}
	return nil
}

// pointeeSize returns the byte size and type of the element a pointer
// expression points at (1/char for void*).
func pointeeSize(ptr ast.Expr) (int64, *ctypes.Type, error) {
	t := ptr.ExprType()
	if t == nil {
		return 0, nil, fmt.Errorf("untyped pointer expression")
	}
	if t.Kind == ctypes.Array {
		t = ctypes.PointerTo(t.Elem)
	}
	if t.Kind != ctypes.Ptr {
		return 0, nil, fmt.Errorf("redirected base has non-pointer type %s", t)
	}
	if t.Elem.Kind == ctypes.Void {
		return 1, ctypes.CharType, nil
	}
	if !t.Elem.HasStaticSize() {
		return 0, nil, fmt.Errorf("pointee of dynamic size")
	}
	return t.Elem.Size(), t.Elem, nil
}

// constSpanOfExpr returns the size of the object(s) a pointer
// expression may reach if all targets have the same statically known
// size.
func (p *pass) constSpanOfExpr(ptr ast.Expr) (int64, bool) {
	return commonSize(p.in, p.in.Alias.PointsTo(ptr))
}

// slotConstSpan reports the statically known common span of everything
// a slot may point to.
func (p *pass) slotConstSpan(s slot) (int64, bool) {
	if v, ok := p.constSpan[s]; ok {
		return v, v >= 0
	}
	size, ok := commonSize(p.in, p.slotTargets(s))
	if !ok {
		p.constSpan[s] = -1
		return 0, false
	}
	p.constSpan[s] = size
	return size, true
}

func (p *pass) slotTargets(s slot) []alias.Object {
	switch {
	case s.sym != nil:
		return p.in.Alias.PointsToSym(s.sym)
	case s.fn != nil:
		return p.in.Alias.PointsToRet(s.fn)
	default:
		// Union over every reference to the field in the program.
		var out []alias.Object
		seen := map[alias.Object]bool{}
		for _, ref := range p.fieldRefs()[s.field] {
			for _, o := range p.in.Alias.PointsTo(ref) {
				if !seen[o] {
					seen[o] = true
					out = append(out, o)
				}
			}
		}
		return out
	}
}

// fieldRefs caches every Member expression per struct field.
func (p *pass) fieldRefs() map[*ctypes.Field][]ast.Expr {
	if p.fieldRefCache == nil {
		p.fieldRefCache = map[*ctypes.Field][]ast.Expr{}
		ast.Inspect(p.in.Prog, func(n ast.Node) bool {
			if m, ok := n.(*ast.Member); ok && m.Field != nil {
				p.fieldRefCache[m.Field] = append(p.fieldRefCache[m.Field], m)
			}
			return true
		})
	}
	return p.fieldRefCache
}

// commonSize returns the unique static size of the objects, if any.
func commonSize(in Input, objs []alias.Object) (int64, bool) {
	if len(objs) == 0 {
		return 0, false
	}
	var size int64 = -1
	for _, o := range objs {
		s, ok := objectSize(in, o)
		if !ok {
			return 0, false
		}
		if size >= 0 && s != size {
			return 0, false
		}
		size = s
	}
	return size, true
}

// objectSize returns the static byte size of an abstract object.
func objectSize(in Input, o alias.Object) (int64, bool) {
	switch o.Kind {
	case alias.ObjVar:
		if o.Sym.Type.HasStaticSize() {
			return o.Sym.Type.Size(), true
		}
	case alias.ObjHeap:
		call := in.Info.Allocs[o.Site]
		if call == nil {
			return 0, false
		}
		switch call.Fun.Sym.Builtin {
		case ast.BMalloc:
			return ast.FoldConst(call.Args[0])
		case ast.BCalloc:
			a, ok1 := ast.FoldConst(call.Args[0])
			b, ok2 := ast.FoldConst(call.Args[1])
			return a * b, ok1 && ok2
		case ast.BRealloc:
			return ast.FoldConst(call.Args[1])
		}
	}
	return 0, false
}

// rootSlot finds the pointer slot at the root of a pointer expression,
// looking through casts and pointer arithmetic.
func (p *pass) rootSlot(e ast.Expr) (slot, ast.Expr, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Sym == nil {
			return slot{}, nil, fmt.Errorf("unresolved identifier")
		}
		switch x.Sym.Kind {
		case ast.SymGlobal, ast.SymLocal, ast.SymParam:
			if x.Sym.Type.Kind == ctypes.Array {
				return slot{}, nil, fmt.Errorf("array %s cannot be a promoted pointer slot", x.Name)
			}
			return slot{sym: x.Sym}, x, nil
		}
		return slot{}, nil, fmt.Errorf("%s is not a pointer variable", x.Name)
	case *ast.Member:
		if x.Field == nil {
			return slot{}, nil, fmt.Errorf("unresolved field")
		}
		var owner *ctypes.Type
		if x.Arrow {
			bt := x.X.ExprType()
			if bt == nil || bt.Kind != ctypes.Ptr {
				return slot{}, nil, fmt.Errorf("bad arrow base")
			}
			owner = bt.Elem
		} else {
			owner = x.X.ExprType()
		}
		return slot{owner: owner, field: x.Field}, x, nil
	case *ast.Cast:
		return p.rootSlot(x.X)
	case *ast.Binary:
		if x.Op == token.ADD || x.Op == token.SUB {
			if t := x.X.ExprType(); t != nil && (t.Kind == ctypes.Ptr || t.Kind == ctypes.Array) {
				return p.rootSlot(x.X)
			}
			if t := x.Y.ExprType(); t != nil && (t.Kind == ctypes.Ptr || t.Kind == ctypes.Array) {
				return p.rootSlot(x.Y)
			}
		}
		return slot{}, nil, fmt.Errorf("cannot root pointer expression %q", ast.PrintExpr(x))
	case *ast.Call:
		if x.Fun.Sym != nil && x.Fun.Sym.Kind == ast.SymFunc {
			return slot{fn: x.Fun.Sym.Fn}, x, nil
		}
		return slot{}, nil, fmt.Errorf("cannot promote result of %s", x.Fun.Name)
	}
	return slot{}, nil, fmt.Errorf("cannot root pointer expression %q", ast.PrintExpr(e))
}

// spanSourceRoots returns the pointer slots whose spans a right-hand
// side depends on (empty for terminal sources: allocations, address-of,
// null, strings, constant-size expressions).
func (p *pass) spanSourceRoots(rhs ast.Expr) ([]slot, error) {
	switch x := stripCasts(rhs).(type) {
	case *ast.IntLit:
		return nil, nil
	case *ast.StringLit:
		return nil, nil
	case *ast.Unary:
		if x.Op == token.AND {
			return nil, nil
		}
	case *ast.Call:
		switch x.Fun.Sym.Builtin {
		case ast.BMalloc, ast.BCalloc, ast.BRealloc:
			return nil, nil
		}
		if x.Fun.Sym.Kind == ast.SymFunc {
			return []slot{{fn: x.Fun.Sym.Fn}}, nil
		}
	case *ast.Cond:
		a, err := p.spanSourceRoots(x.Then)
		if err != nil {
			return nil, err
		}
		b, err := p.spanSourceRoots(x.Else)
		if err != nil {
			return nil, err
		}
		return append(a, b...), nil
	}
	if S, ok := p.constSpanOfExpr(rhs); ok && p.opts.ConstSpan {
		_ = S
		return nil, nil
	}
	root, _, err := p.rootSlot(stripCasts(rhs))
	if err != nil {
		return nil, fmt.Errorf("%s: cannot derive a span for %q: %v", rhs.Pos(), ast.PrintExpr(rhs), err)
	}
	return []slot{root}, nil
}

func stripCasts(e ast.Expr) ast.Expr {
	for {
		c, ok := e.(*ast.Cast)
		if !ok {
			return e
		}
		e = c.X
	}
}

// collectFlows gathers, for every pointer slot, the right-hand sides
// that flow into it: assignments, initializers, call arguments and
// returned expressions.
func (p *pass) collectFlows() map[slot][]ast.Expr {
	flows := map[slot][]ast.Expr{}
	addTo := func(lhs ast.Expr, rhs ast.Expr) {
		if rhs == nil {
			return
		}
		t := lhs.ExprType()
		if t == nil || t.Kind != ctypes.Ptr {
			return
		}
		if s, _, err := p.rootSlot(lhs); err == nil {
			flows[s] = append(flows[s], rhs)
		}
	}
	ast.Inspect(p.in.Prog, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			if x.Op == token.ASSIGN {
				addTo(x.LHS, x.RHS)
			}
		case *ast.VarDecl:
			if x.Init != nil && x.Sym != nil && x.Sym.Type.Kind == ctypes.Ptr {
				flows[slot{sym: x.Sym}] = append(flows[slot{sym: x.Sym}], x.Init)
			}
		case *ast.Call:
			if x.Fun.Sym != nil && x.Fun.Sym.Kind == ast.SymFunc {
				callee := x.Fun.Sym.Fn
				for i, arg := range x.Args {
					if i < len(callee.Params) && callee.Params[i].Type.Kind == ctypes.Ptr {
						s := slot{sym: callee.Params[i].Sym}
						flows[s] = append(flows[s], arg)
					}
				}
			}
		}
		return true
	})
	for _, fn := range p.in.Prog.Funcs() {
		if fn.Ret.Kind != ctypes.Ptr {
			continue
		}
		f := fn
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if r, ok := n.(*ast.Return); ok && r.X != nil {
				flows[slot{fn: f}] = append(flows[slot{fn: f}], r.X)
			}
			return true
		})
	}
	return flows
}

// In unoptimized mode (paper Fig. 9a) promotion additionally covers
// every pointer slot that may reach any expanded structure.
func (p *pass) addUnoptimizedPromotions() error {
	if p.opts.ConstSpan {
		return nil
	}
	targetsExpanded := func(objs []alias.Object) bool {
		for _, o := range objs {
			if p.expandSet[o] {
				return true
			}
		}
		return false
	}
	// Pointer variables.
	ast.Inspect(p.in.Prog, func(n ast.Node) bool {
		d, ok := n.(*ast.VarDecl)
		if !ok || d.Sym == nil || d.Sym.Type.Kind != ctypes.Ptr {
			return true
		}
		if d.Sym.Kind == ast.SymParam {
			return true // promoted only via the backward closure
		}
		if targetsExpanded(p.in.Alias.PointsToSym(d.Sym)) {
			p.promote[slot{sym: d.Sym}] = true
		}
		return true
	})
	// Struct fields.
	for f, refs := range p.fieldRefs() {
		if f.Type.Kind != ctypes.Ptr {
			continue
		}
		for _, ref := range refs {
			if targetsExpanded(p.in.Alias.PointsTo(ref)) {
				m := ref.(*ast.Member)
				var owner *ctypes.Type
				if m.Arrow {
					owner = m.X.ExprType().Elem
				} else {
					owner = m.X.ExprType()
				}
				p.promote[slot{owner: owner, field: f}] = true
				break
			}
		}
	}
	return nil
}
