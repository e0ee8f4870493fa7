// Package publishmut enforces the publish-then-freeze contract on the
// pipeline's shared snapshot types: once a *Columns or *Snapshot value
// escapes the constructing goroutine — stored into an atomic cell,
// sent on a channel, assigned to a package-level variable, or returned
// to the caller — no code may keep writing through it.
//
// The serve daemon swaps whole immutable snapshots through an atomic
// pointer precisely so queries never race a reload; a single
// post-publish field write reintroduces the data race the design
// removed, invisibly, on whichever query happens to be reading. The
// analyzer runs a forward dataflow per function marking each tracked
// local as published at the escape point, and flags any later
// field/index/pointer write rooted at a published value on any path.
// Rebinding the variable to a fresh value (`snap = &Snapshot{...}`)
// clears its published state: the new object has not escaped.
//
// Target types are matched by name (Columns, Snapshot) so the
// invariant follows the values wherever the scoped packages handle
// them. Writes that are provably pre-publication on every path stay
// silent; intentional post-publish mutation of auxiliary fields must
// be blessed explicitly:
//
//	//supremmlint:allow publishmut <why this write cannot race readers>
package publishmut

import (
	"go/ast"
	"go/types"

	"supremm/internal/analysis"
	"supremm/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "publishmut",
	Doc:  "flags writes through a Columns/Snapshot value after it escapes (atomic store, channel send, global, return)",
	Run:  run,
}

// targetTypes are the shared snapshot types the freeze contract covers,
// matched by type name so testdata packages (stdlib-only imports) and
// the real store/serve packages both resolve.
var targetTypes = map[string]bool{
	"Columns":  true,
	"Snapshot": true,
}

// pub records how a value escaped, for the diagnostic.
type pub struct {
	how string
}

type state = map[string]pub

func run(pass *analysis.Pass) error {
	return analysis.RunFlow(pass, analysis.Flow[pub]{
		Step: func(b *cfg.Block, s state, report analysis.Report) {
			for _, n := range b.Nodes {
				stepNode(pass, n, s, report)
			}
		},
		// A value stays published however the other path left it.
		Join: func(a pub, inA bool, b pub, _ bool) pub {
			if inA {
				return a
			}
			return b
		},
	})
}

// stepNode applies one CFG node: write checks against the current
// state first, then any publish events the node performs.
func stepNode(pass *analysis.Pass, n ast.Node, out state, report analysis.Report) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			checkWrite(pass, lhs, out, report)
		}
	case *ast.IncDecStmt:
		checkWrite(pass, n.X, out, report)
	case *ast.SendStmt:
		publish(pass, n.Value, "channel send", out)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			publish(pass, r, "return", out)
		}
	}
	// Publishes and rebinds nested anywhere in the node (call
	// arguments, assignment RHS, condition expressions).
	cfg.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if how, ok := atomicPublish(pass.TypesInfo, x); ok {
				for _, arg := range x.Args {
					publish(pass, arg, how, out)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent {
					continue
				}
				if isPkgLevelVar(pass, id) && i < len(x.Rhs) {
					publish(pass, x.Rhs[i], "assignment to package-level var "+id.Name, out)
					continue
				}
				// Rebinding a tracked local to a fresh value clears its
				// published state: the new object has not escaped.
				if key, ok := analysis.ExprKey(pass.TypesInfo, id); ok {
					delete(out, key)
				}
			}
		}
		return true
	})
}

// checkWrite reports lhs if it writes through a published value: any
// selector, index, or pointer dereference rooted at a published ident.
// A bare ident is a rebind, handled by the caller's publish/clear pass.
func checkWrite(pass *analysis.Pass, lhs ast.Expr, out state, report analysis.Report) {
	if report == nil {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
		return
	}
	key, ok := analysis.ExprKey(pass.TypesInfo, root)
	if !ok {
		return
	}
	if p, published := out[key]; published {
		report(lhs.Pos(), "write to %s after it escaped via %s; published values are read-only", root.Name, p.how)
	}
}

// publish marks e's root value as escaped when e is a trackable
// expression of a target type.
func publish(pass *analysis.Pass, e ast.Expr, how string, out state) {
	if !isTargetType(pass.TypesInfo.TypeOf(e)) {
		return
	}
	root := rootIdent(e)
	if root == nil {
		return
	}
	key, ok := analysis.ExprKey(pass.TypesInfo, root)
	if !ok {
		return
	}
	if _, already := out[key]; !already {
		out[key] = pub{how: how}
	}
}

// rootIdent walks selector/index/star/paren chains to the base
// identifier, or nil when the expression is rooted elsewhere.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isTargetType reports whether t (through pointers) is one of the
// frozen snapshot types.
func isTargetType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return targetTypes[named.Obj().Name()]
}

// atomicPublish recognizes method calls that hand a value to the
// sync/atomic package: Value.Store, Pointer.Store/Swap/CompareAndSwap.
func atomicPublish(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	switch fn.Name() {
	case "Store", "Swap", "CompareAndSwap":
		return "atomic " + fn.Name(), true
	}
	return "", false
}

// isPkgLevelVar reports whether id resolves to a package-level
// variable of the analyzed package.
func isPkgLevelVar(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() == pass.Pkg.Scope()
}
