// Package deferclose proves that resources opened on the ingest and
// serve reload paths are closed on every path out of the opening
// function.
//
// The serve daemon reopens snapshot and realm files on every SIGHUP
// reload, and ingest walks thousands of per-host archives per run; a
// single early return between Open and Close leaks a descriptor per
// reload or per file, and the daemon dies of EMFILE days later with no
// error anywhere near the bug. The analyzer tracks each call to an
// Open/OpenFile/Create/CreateTemp-named function whose first result
// has a Close() error method, as a close obligation on the assigned
// variable:
//
//   - the obligation starts pending while the accompanying error is
//     unchecked; the `err != nil` branch cancels it (a failed open
//     returns no resource), the nil branch makes it active;
//   - f.Close() — direct, deferred, or inside an error-capturing
//     assignment — discharges it;
//   - transferring ownership discharges it too: returning the value,
//     assigning it to another variable or struct field, sending it on
//     a channel, handing it to a goroutine, or capturing it in a
//     function literal. Passing it as an ordinary call argument does
//     NOT: lending a handle to a parser leaves the caller responsible
//     for closing it;
//   - an obligation still live at a return, fall-off, or panic exit is
//     a finding, reported at the open site.
//
// Long-lived handles that genuinely outlive the function (a pid file
// held until exit) record the reviewed exception:
//
//	//supremmlint:allow deferclose <who closes it, and when>
package deferclose

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"supremm/internal/analysis"
	"supremm/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "deferclose",
	Doc:  "flags opened resources not closed on every path out of the function",
	Run:  run,
}

// openFuncs are the function names that mint close obligations when
// their first result is a Closer.
var openFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
}

type status int

const (
	// pending: opened, but the accompanying error has not been checked
	// yet — the resource may not exist.
	pending status = iota
	// active: the open succeeded (or had no error to check); Close is
	// owed on every path.
	active
)

type res struct {
	st     status
	pos    token.Pos
	name   string
	errKey string // ExprKey of the error variable, "" if none
}

type state = map[string]res

type checker struct {
	pass *analysis.Pass
	// captured holds keys referenced inside nested function literals:
	// the closure may close them, so they are never tracked.
	captured map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	return analysis.RunFlow(pass, analysis.Flow[res]{
		Trigger: c.isOpenCall,
		Enter:   func(fn analysis.FuncInfo) { c.captured = capturedKeys(pass.TypesInfo, fn.Body) },
		Step: func(b *cfg.Block, s state, _ analysis.Report) {
			for _, n := range b.Nodes {
				c.discharges(n, s)
				c.escapes(n, s)
				c.creations(n, s)
			}
		},
		Join: join,
		Edge: c.refineEdge,
		Exit: func(fn analysis.FuncInfo, r res, how string, report analysis.Report) {
			report(r.pos, "%s opened here is not closed on every path out of %s (%s); close it or defer the close",
				r.name, fn.Name, how)
		},
	})
}

// discharges deletes obligations whose resource is closed anywhere in
// n: f.Close() bare, deferred, or error-captured. A tracked value
// passed to a deferred cleanup call is discharged too.
func (c *checker) discharges(n ast.Node, out state) {
	if d, ok := n.(*ast.DeferStmt); ok {
		for _, arg := range d.Call.Args {
			if key, ok := analysis.ExprKey(c.pass.TypesInfo, arg); ok {
				delete(out, key)
			}
		}
	}
	cfg.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if key, ok := analysis.ExprKey(c.pass.TypesInfo, sel.X); ok {
			delete(out, key)
		}
		return true
	})
}

// escapes deletes obligations whose value's ownership leaves the
// function through n: returns, aliasing assignments, composite
// literals, channel sends, and goroutine hand-offs. Ordinary call
// arguments are deliberately not escapes.
func (c *checker) escapes(n ast.Node, out state) {
	dropAll := func(e ast.Expr) {
		// Any mention inside the expression transfers ownership.
		cfg.Inspect(e, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if key, ok := analysis.ExprKey(c.pass.TypesInfo, id); ok {
					delete(out, key)
				}
			}
			return true
		})
	}
	dropDirect := func(e ast.Expr) {
		// Only bare mentions and composite-literal elements transfer
		// ownership; call arguments are lends.
		var walk func(ast.Expr)
		walk = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.Ident:
				if key, ok := analysis.ExprKey(c.pass.TypesInfo, e); ok {
					delete(out, key)
				}
			case *ast.ParenExpr:
				walk(e.X)
			case *ast.UnaryExpr:
				walk(e.X)
			case *ast.CompositeLit:
				for _, el := range e.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						walk(kv.Value)
						continue
					}
					walk(el)
				}
			}
		}
		walk(e)
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			dropAll(r)
		}
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			if len(n.Lhs) == len(n.Rhs) {
				// `_ = f` discards the value; nothing took ownership.
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
			}
			dropDirect(r)
		}
		// Assigning INTO a struct field or map slot stores the value
		// somewhere that outlives the statement; writes like
		// `o.sink = f` appear on the LHS only when f is the RHS, so
		// RHS handling above covers the tracked value.
	case *ast.SendStmt:
		dropDirect(n.Value)
	case *ast.GoStmt:
		dropAll(n.Call)
	}
}

// creations adds an obligation for each resource-opening assignment in
// n: `f, err := os.Open(p)` or `var f, err = os.Open(p)`.
func (c *checker) creations(n ast.Node, out state) {
	addFrom := func(names []ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !c.isOpenCall(call) || len(names) == 0 {
			return
		}
		id, ok := ast.Unparen(names[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		key, ok := analysis.ExprKey(c.pass.TypesInfo, id)
		if !ok || c.captured[key] {
			return
		}
		r := res{st: active, pos: call.Pos(), name: id.Name + " := " + types.ExprString(call.Fun) + "(...)"}
		if len(names) > 1 {
			if errID, ok := ast.Unparen(names[1]).(*ast.Ident); ok && errID.Name != "_" {
				if errKey, ok := analysis.ExprKey(c.pass.TypesInfo, errID); ok {
					r.st = pending
					r.errKey = errKey
				}
			}
		}
		out[key] = r
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			addFrom(n.Lhs, n.Rhs[0])
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 1 {
					names := make([]ast.Expr, len(vs.Names))
					for i, nm := range vs.Names {
						names[i] = nm
					}
					addFrom(names, vs.Values[0])
				}
			}
		}
	}
}

// refineEdge resolves pending obligations at `err != nil` / `err == nil`
// branches: the error path cancels the obligation, the nil path
// activates it.
func (c *checker) refineEdge(b *cfg.Block, e cfg.Edge, out state) state {
	if b.Cond == nil || (e.Kind != cfg.EdgeTrue && e.Kind != cfg.EdgeFalse) {
		return out
	}
	errKey, op, ok := c.nilCompare(b.Cond)
	if !ok {
		return out
	}
	// errIsNonNil on this edge?
	errNonNil := (op == token.NEQ) == (e.Kind == cfg.EdgeTrue)
	var refined state
	for k, r := range out {
		if r.st != pending || r.errKey != errKey {
			continue
		}
		if refined == nil {
			refined = maps.Clone(out)
		}
		if errNonNil {
			delete(refined, k)
		} else {
			r.st = active
			refined[k] = r
		}
	}
	if refined == nil {
		return out
	}
	return refined
}

// nilCompare matches conditions of the form `x == nil` / `x != nil`
// (either operand order), returning x's key and the operator.
func (c *checker) nilCompare(cond ast.Expr) (string, token.Token, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", 0, false
	}
	isNil := func(e ast.Expr) bool {
		tv, ok := c.pass.TypesInfo.Types[e]
		return ok && tv.IsNil()
	}
	switch {
	case isNil(be.Y):
		if key, ok := analysis.ExprKey(c.pass.TypesInfo, be.X); ok {
			return key, be.Op, true
		}
	case isNil(be.X):
		if key, ok := analysis.ExprKey(c.pass.TypesInfo, be.Y); ok {
			return key, be.Op, true
		}
	}
	return "", 0, false
}

// isOpenCall reports whether call invokes an Open/Create-named
// function or method whose first result has a Close() error method.
func (c *checker) isOpenCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	if !openFuncs[name] {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	first := tv.Type
	if tup, ok := first.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		first = tup.At(0).Type()
	}
	return hasCloseMethod(first)
}

// hasCloseMethod reports whether t's method set includes
// Close() error.
func hasCloseMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "Close" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		return ok && named.Obj().Name() == "error"
	}
	return false
}

// capturedKeys collects the keys of every identifier referenced inside
// a nested function literal of body.
func capturedKeys(info *types.Info, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || lit.Body == body {
			return true
		}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if key, ok := analysis.ExprKey(info, id); ok {
					out[key] = true
				}
			}
			return true
		})
		return false
	})
	return out
}

// join keeps a path's obligation, preferring one the other path has
// already activated.
func join(a res, inA bool, b res, inB bool) res {
	if !inA || inB && a.st == pending && b.st == active {
		return b
	}
	return a
}
