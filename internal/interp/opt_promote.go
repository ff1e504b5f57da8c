// Scalar register promotion (pass 1 of the optimization pipeline, see
// opt.go). The analysis here decides which of a function's locals and
// parameters may live in Go-native frame registers; the promoted
// closure variants themselves are emitted by compile_expr.go /
// compile_stmt.go next to the generic ones they replace.
//
// Promotion is write-through: a promoted variable keeps its alloca
// (layout, stack-overflow faults and allocator statistics are
// unchanged) and every write updates both the register and the backing
// bytes. Simulated memory therefore stays byte-identical to an
// unoptimized run, which makes any remaining memory-path read of the
// variable — an unfused consumer, a post-run memory dump — still
// correct. Only the reverse direction is
// unsound: a write that bypasses the register (an out-of-object store
// landing in the slot) would leave the register stale. The promotion
// criteria below rule that out for well-defined programs. Tree-walked
// code cannot touch a promoted slot: a compiled-engine run never
// enters the tree-walker (assertTree). Inside a parallel region only the outer
// scalars a loop body writes fall back to memory (see promotableSlots).
package interp

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
)

// promotableType reports whether values of t fit a frame register: a
// scalar of statically known power-of-two width. Arrays and structs
// are excluded (they are accessed through their address), as are VLA
// element types.
func promotableType(t *ctypes.Type) bool {
	if t == nil || !t.HasStaticSize() {
		return false
	}
	if t.Kind == ctypes.Ptr || t.IsFloat() {
		return true
	}
	if !t.IsInteger() {
		return false
	}
	switch t.Size() {
	case 1, 2, 4, 8:
		return true
	}
	return false
}

// promotableSlots returns, indexed by Symbol.Index, which of fn's
// locals and parameters the compiler promotes; nil when promotion is
// off or nothing qualifies. A slot qualifies when its address is never
// taken (sema's AddrTaken bit), its type fits a register, and no
// parallel-annotated loop the machine would actually run in parallel
// writes it from a body that does not declare it.
func (c *compiler) promotableSlots(fn *ast.FuncDecl) []bool {
	if !c.opt.promote {
		return nil
	}
	promoted := make([]bool, fn.NumSlots)
	mark := func(sym *ast.Symbol, d *ast.VarDecl) {
		if sym == nil || (sym.Kind != ast.SymLocal && sym.Kind != ast.SymParam) {
			return
		}
		if sym.AddrTaken || !promotableType(sym.Type) {
			return
		}
		if d != nil && d.VLALen != nil {
			return
		}
		promoted[sym.Index] = true
	}
	for _, p := range fn.Params {
		mark(p.Sym, p)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.VarDecl); ok {
			mark(d.Sym, d)
		}
		return true
	})
	// Inside a parallel region each worker runs on its own copy of the
	// spawning frame's registers. A slot the loop body declares is
	// iteration-fresh (Definition 5's private class), an outer slot it
	// only reads never changes during the region, and runIters keeps
	// the induction variable's worker register current: all three stay
	// promoted. An outer slot the body writes is shared between the
	// workers and stays in memory. Recovery restores memory only and
	// needs no register restore: the sequential re-execution re-creates
	// body registers and rewrites the induction variable in its init.
	// The demotion applies under the compile-time condition on which
	// compileFor emits the parallel path at all.
	if (c.m.opts.NumThreads > 1 || c.m.opts.ParallelizeSingle) && !c.m.opts.ForceSequential {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if fo, ok := n.(*ast.For); ok && fo.Par != ast.Sequential {
				demoteWritten(fo.Body, promoted)
			}
			return true
		})
	}
	for _, p := range promoted {
		if p {
			return promoted
		}
	}
	return nil
}

// demoteWritten demotes every local or parameter that body assigns or
// steps but does not declare. A symbol body declares is fresh in each
// iteration, so writing it never crosses workers.
func demoteWritten(body ast.Stmt, promoted []bool) {
	declared := map[*ast.Symbol]bool{}
	var written []*ast.Symbol
	ast.Inspect(body, func(n ast.Node) bool {
		var lhs ast.Expr
		switch x := n.(type) {
		case *ast.VarDecl:
			declared[x.Sym] = true
		case *ast.Assign:
			lhs = x.LHS
		case *ast.IncDec:
			lhs = x.X
		}
		if id, ok := lhs.(*ast.Ident); ok {
			written = append(written, id.Sym)
		}
		return true
	})
	for _, sym := range written {
		if sym != nil && (sym.Kind == ast.SymLocal || sym.Kind == ast.SymParam) &&
			!declared[sym] && sym.Index < len(promoted) {
			promoted[sym.Index] = false
		}
	}
}

// isPromoted reports whether sym lives in a frame register of the
// function currently being compiled.
func (c *compiler) isPromoted(sym *ast.Symbol) bool {
	return sym != nil && c.promoted != nil &&
		(sym.Kind == ast.SymLocal || sym.Kind == ast.SymParam) &&
		sym.Index < len(c.promoted) && c.promoted[sym.Index]
}
