package interp

// Engine selects how a Machine executes MiniC code.
//
// The tree-walking engine (the original implementation in eval.go and
// exec.go) re-dispatches on AST node kind and re-resolves names on
// every evaluation. The closure-compiling engine walks each function
// body once, after sema, and produces a tree of pre-resolved Go
// closures: variables become fixed frame-slot or global-table indices,
// types, sizes and conversion paths are chosen at compile time,
// constant subtrees fold to a single closure, and the per-node switch
// disappears from the hot path.
//
// Both engines execute against the same thread, frame and Machine
// structures, fire the profiling Hooks at exactly the same points with
// the same access-site IDs, and maintain identical work/sync/wait
// counters and cache-model traffic, so every consumer — the dependence
// profiler, the runtime-privatization baseline, the trace-driven
// schedule simulator — observes the same execution either way.
type Engine int

// Engines. The zero value is the compiled engine, so it is the
// default everywhere an Options struct is built without setting one.
const (
	// EngineCompiled executes pre-compiled closure trees with the
	// optimization pipeline applied (default).
	EngineCompiled Engine = iota
	// EngineTree walks the AST directly (the reference implementation).
	EngineTree
	// EngineCompiledNoOpt is the compiled engine with the optimization
	// pipeline disabled (register promotion, superinstruction fusion,
	// site specialization): it compiles exactly the closures the engine
	// emitted before the pipeline existed.
	EngineCompiledNoOpt
)

// String names the engine as accepted by the -engine command flags.
func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineCompiledNoOpt:
		return "compiled-noopt"
	}
	return "compiled"
}

// EngineFromString parses an -engine flag value. Unknown names report
// ok == false.
func EngineFromString(s string) (Engine, bool) {
	switch s {
	case "", "compiled":
		return EngineCompiled, true
	case "tree":
		return EngineTree, true
	case "compiled-noopt":
		return EngineCompiledNoOpt, true
	}
	return EngineCompiled, false
}
