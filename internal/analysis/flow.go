package analysis

import (
	"go/ast"
	"go/token"
	"maps"

	"supremm/internal/analysis/cfg"
)

// Flow is one path-sensitive check: a forward dataflow over the CFG of
// every function in a pass, on a state that maps a key (a lock path, a
// variable) to a value V. RunFlow owns what every such check shares —
// the loop over functions, the trigger pre-scan, copying, joining and
// comparing whole states, the fixpoint, and reporting each position
// once — so a check supplies only what is its own.
type Flow[V comparable] struct {
	// Trigger, when set, skips every function whose body (nested
	// function literals aside) holds no call it accepts.
	Trigger func(call *ast.CallExpr) bool
	// Enter, when set, runs once per function before its dataflow.
	Enter func(fn FuncInfo)
	// Step applies block b's nodes to s, the block's own copy of its
	// in-state. report is nil while the fixpoint runs.
	Step func(b *cfg.Block, s map[string]V, report Report)
	// Join merges the values one key holds on two paths into a block.
	// inA or inB is false where the key is absent on that side, whose
	// value is then V's zero.
	Join func(a V, inA bool, b V, inB bool) V
	// Edge, when set, refines the out-state of b along edge e. It
	// returns s unchanged or a changed copy, never s changed in place.
	Edge func(b *cfg.Block, e cfg.Edge, s map[string]V) map[string]V
	// Exit, when set, reports from the converged states at the
	// function's normal and panicking exits: it sees each value live
	// there, with how naming the exit. Without it, every reachable
	// block is stepped once more from its converged in-state with
	// report set.
	Exit func(fn FuncInfo, v V, how string, report Report)
}

// Report records a finding at pos. RunFlow passes on the first report
// at each position of a function and drops the rest.
type Report func(pos token.Pos, format string, args ...any)

// RunFlow runs check over every function of the pass.
func RunFlow[V comparable](p *Pass, check Flow[V]) error {
	for _, f := range p.Files {
		for _, fn := range p.Functions(f) {
			runFlow(p, check, fn)
		}
	}
	return nil
}

func runFlow[V comparable](p *Pass, check Flow[V], fn FuncInfo) {
	if check.Trigger != nil && !calls(fn.Body, check.Trigger) {
		return
	}
	if check.Enter != nil {
		check.Enter(fn)
	}
	step := func(b *cfg.Block, in map[string]V, report Report) map[string]V {
		out := maps.Clone(in)
		check.Step(b, out, report)
		return out
	}
	g := p.CFG(fn)
	states := cfg.Forward(g, map[string]V{}, cfg.Transfer[map[string]V]{
		Flow: func(b *cfg.Block, in map[string]V) map[string]V { return step(b, in, nil) },
		Edge: check.Edge,
		Join: func(a, b map[string]V) map[string]V {
			out := maps.Clone(a)
			for k, bv := range b {
				av, inA := out[k]
				out[k] = check.Join(av, inA, bv, true)
			}
			for k, av := range a {
				if _, inB := b[k]; !inB {
					var zero V
					out[k] = check.Join(av, true, zero, false)
				}
			}
			return out
		},
		Equal: func(a, b map[string]V) bool { return maps.Equal(a, b) },
	})

	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			p.Reportf(pos, format, args...)
		}
	}
	if check.Exit != nil {
		for _, v := range states[g.Exit] {
			check.Exit(fn, v, "a return path leaks it", report)
		}
		for _, v := range states[g.Panic] {
			check.Exit(fn, v, "a panic path leaks it", report)
		}
		return
	}
	for _, b := range g.Blocks {
		if in, ok := states[b]; ok && b.Reachable {
			step(b, in, report)
		}
	}
}

// calls reports whether body, nested function literals aside, holds a
// call that accept takes.
func calls(body *ast.BlockStmt, accept func(*ast.CallExpr) bool) bool {
	found := false
	cfg.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && accept(call) {
			found = true
		}
		return !found
	})
	return found
}
