// Package lockcheck proves, per function, that every sync.Mutex /
// sync.RWMutex acquisition is released on every path out of the
// function — early returns and explicit panics included.
//
// The serve daemon's reload path and the store's internals are the
// packages where a leaked lock is catastrophic: a single return that
// skips Unlock wedges every later reload (or every later query) behind
// a mutex nobody will ever release, which is precisely the
// "always-available aggregates" promise broken in the quietest way
// possible. The analyzer runs a forward dataflow over the function's
// CFG tracking, per lock path (`s.reloadMu`, `c.mu`, ...), the set of
// (held, deferred-unlock) states reachable at each point:
//
//   - `defer mu.Unlock()` (directly or inside a deferred function
//     literal) marks every later exit on that path as covered — the
//     preferred idiom;
//   - a direct `mu.Unlock()` on every path is also accepted (the
//     paired-unlock idiom used mid-function);
//   - a path reaching a return, the fall-off end, or a `panic(...)`
//     while a lock is held with no deferred unlock is a finding,
//     reported at the acquisition site.
//
// Read locks are tracked separately from write locks (RLock pairs with
// RUnlock, Lock with Unlock). sync.Mutex.TryLock is ignored: its
// conditional result makes hold-state a value question this analyzer
// does not model; reviewed call sites use the allow directive. Lock
// handoffs (a function intentionally returning with the lock held for
// its caller to release) are blessed the same way:
//
//	//supremmlint:allow lockcheck <why the lock legitimately outlives the function>
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"supremm/internal/analysis"
	"supremm/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "flags mutexes acquired but not released on every path out of the function",
	Run:  run,
}

// Hold-state lattice per lock key: a bitmask over (held, deferred)
// pairs reachable along some path.
const (
	stIdle     = 1 << iota // not held, no deferred unlock pending
	stDeferred             // not held, deferred unlock registered (double-unlock at runtime; not this analyzer's concern)
	stHeld                 // held, no deferred unlock — the dangerous state at an exit
	stHeldDef              // held, deferred unlock registered
)

// lockFacts is the dataflow value for one lock key.
type lockFacts struct {
	mask uint8
	pos  token.Pos // first acquisition site seen (for reporting)
	name string    // display name ("s.reloadMu.Lock")
}

type state = map[string]lockFacts

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	return analysis.RunFlow(pass, analysis.Flow[lockFacts]{
		Trigger: func(call *ast.CallExpr) bool {
			_, _, _, ok := lockOp(info, call)
			return ok
		},
		Step: func(b *cfg.Block, s state, _ analysis.Report) { step(info, b, s) },
		Join: join,
		Exit: func(fn analysis.FuncInfo, facts lockFacts, how string, report analysis.Report) {
			if facts.mask&stHeld != 0 {
				report(facts.pos, "%s is not released on every path out of %s (%s); unlock on all paths or defer the unlock",
					facts.name, fn.Name, how)
			}
		},
	})
}

func step(info *types.Info, b *cfg.Block, out state) {
	for _, n := range b.Nodes {
		if d, ok := n.(*ast.DeferStmt); ok {
			applyDefer(info, d, out)
			continue
		}
		cfg.Inspect(n, func(x ast.Node) bool {
			if d, ok := x.(*ast.DeferStmt); ok {
				applyDefer(info, d, out)
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, name, op, ok := lockOp(info, call)
			if !ok {
				return true
			}
			facts := out[key]
			switch op {
			case opLock:
				facts.mask = shiftHeld(facts.mask, true)
				if facts.pos == token.NoPos {
					facts.pos = call.Pos()
					facts.name = name
				}
			case opUnlock:
				facts.mask = shiftHeld(facts.mask, false)
			}
			if facts.mask == 0 {
				facts.mask = stIdle
			}
			out[key] = facts
			return true
		})
	}
}

// applyDefer marks the deferred-unlock bit for every lock the deferred
// call (or deferred function literal) releases.
func applyDefer(info *types.Info, d *ast.DeferStmt, out state) {
	mark := func(call *ast.CallExpr) {
		key, _, op, ok := lockOp(info, call)
		if !ok || op != opUnlock {
			return
		}
		facts := out[key]
		facts.mask = setDeferred(facts.mask)
		out[key] = facts
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
		return
	}
	mark(d.Call)
}

// shiftHeld moves every reachable (held, deferred) pair to the given
// held value, preserving the deferred bit.
func shiftHeld(mask uint8, held bool) uint8 {
	if mask == 0 {
		mask = stIdle
	}
	var out uint8
	for _, bit := range []struct {
		from    uint8
		defered bool
	}{{stIdle, false}, {stDeferred, true}, {stHeld, false}, {stHeldDef, true}} {
		if mask&bit.from == 0 {
			continue
		}
		switch {
		case held && bit.defered:
			out |= stHeldDef
		case held:
			out |= stHeld
		case bit.defered:
			out |= stDeferred
		default:
			out |= stIdle
		}
	}
	return out
}

// setDeferred marks the deferred bit on every reachable pair.
func setDeferred(mask uint8) uint8 {
	if mask == 0 {
		mask = stIdle
	}
	var out uint8
	if mask&(stIdle|stDeferred) != 0 {
		out |= stDeferred
	}
	if mask&(stHeld|stHeldDef) != 0 {
		out |= stHeldDef
	}
	return out
}

// join unions the hold states a lock reaches on either path. A lock
// absent on one path was never touched there: idle.
func join(a lockFacts, inA bool, b lockFacts, inB bool) lockFacts {
	if !inA {
		a = lockFacts{mask: stIdle}
	}
	if !inB {
		b = lockFacts{mask: stIdle}
	}
	a.mask |= b.mask
	if a.pos == token.NoPos {
		a.pos, a.name = b.pos, b.name
	}
	return a
}

type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
)

// lockOp classifies call as a mutex acquisition or release, returning
// the canonical lock-path key (read locks keyed separately from write
// locks), a display name, and the operation.
func lockOp(info *types.Info, call *ast.CallExpr) (key, name string, op lockOpKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", 0, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", 0, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", 0, false
	}
	rt := recv.Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", "", 0, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", 0, false
	}
	base, keyOK := analysis.ExprKey(info, sel.X)
	if !keyOK {
		return "", "", 0, false
	}
	display := types.ExprString(sel.X) + "." + fn.Name()
	switch fn.Name() {
	case "Lock":
		return base + "/w", display, opLock, true
	case "Unlock":
		return base + "/w", display, opUnlock, true
	case "RLock":
		return base + "/r", display, opLock, true
	case "RUnlock":
		return base + "/r", display, opUnlock, true
	}
	return "", "", 0, false
}
