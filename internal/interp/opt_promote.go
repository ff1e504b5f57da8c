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
// landing in the slot, or tree-walked code mutating it) would leave
// the register stale. The promotion criteria below rule those out for
// well-defined programs, and parallel regions fall back wholesale.
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
// taken (sema's AddrTaken bit), its type fits a register, and it is
// not touched by any parallel-annotated loop the machine would
// actually run in parallel.
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
	// Parallel regions copy only the slot table into worker frames and
	// roll memory (not registers) back on recovery — so every symbol a
	// parallel loop subtree mentions stays in memory. The exclusion matches the
	// compile-time condition under which compileFor emits the parallel
	// path at all; with one thread and no forced machinery nothing is
	// excluded.
	if (c.m.opts.NumThreads > 1 || c.m.opts.ParallelizeSingle) && !c.m.opts.ForceSequential {
		demote := func(sym *ast.Symbol) {
			if sym != nil && (sym.Kind == ast.SymLocal || sym.Kind == ast.SymParam) &&
				sym.Index < len(promoted) {
				promoted[sym.Index] = false
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			fo, ok := n.(*ast.For)
			if !ok || fo.Par == ast.Sequential {
				return true
			}
			ast.Inspect(fo, func(inner ast.Node) bool {
				switch x := inner.(type) {
				case *ast.Ident:
					demote(x.Sym)
				case *ast.VarDecl:
					demote(x.Sym)
				}
				return true
			})
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

// isPromoted reports whether sym lives in a frame register of the
// function currently being compiled.
func (c *compiler) isPromoted(sym *ast.Symbol) bool {
	return sym != nil && c.promoted != nil &&
		(sym.Kind == ast.SymLocal || sym.Kind == ast.SymParam) &&
		sym.Index < len(c.promoted) && c.promoted[sym.Index]
}
