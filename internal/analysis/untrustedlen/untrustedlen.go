// Package untrustedlen is a taint analysis for decode paths: any
// integer read out of input bytes must pass through a comparison
// against some bound before it is used to size an allocation, index a
// slice or array, take a subslice, or limit an io copy.
//
// The store codec and the taccstats parsers decode lengths from files
// the daemon did not write in this process — a truncated snapshot, a
// corrupt archive, or a hostile upload can carry a length field of
// 2^60 and turn one `make([]T, n)` into an instant OOM kill, which on
// the aggregation node takes every realm's queries down with it. The
// analyzer marks integers as tainted at their source:
//
//   - results of encoding/binary decoders (Uint16/32/64, Varint,
//     Uvarint, ReadVarint, ReadUvarint);
//   - results of in-package functions whose doc comment carries the
//     //supremmlint:untrusted directive (the codec's own take/uint32
//     helpers).
//
// Taint propagates through assignment, arithmetic, and integer
// conversions. A comparison with the tainted variable as an operand
// (either side, any relational operator) sanitizes it — the analyzer
// checks that a bound check exists on the path, not that the bound is
// right. Tainted values reaching make(len/cap), slice/array indexing,
// slice bounds, or io.CopyN are findings. Reviewed exceptions:
//
//	//supremmlint:allow untrustedlen <why the value cannot exceed the bound>
package untrustedlen

import (
	"go/ast"
	"go/token"
	"go/types"

	"supremm/internal/analysis"
	"supremm/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "untrustedlen",
	Doc:  "flags input-decoded integers reaching make/index/slice/io.CopyN without a bound check",
	Run:  run,
}

// UntrustedDirective marks a function whose integer results come
// straight from input bytes.
const UntrustedDirective = "supremmlint:untrusted"

// binarySources are the encoding/binary decoders that mint untrusted
// integers.
var binarySources = map[string]bool{
	"Uint16": true, "Uint32": true, "Uint64": true,
	"Varint": true, "Uvarint": true,
	"ReadVarint": true, "ReadUvarint": true,
}

type state = map[string]bool

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, decls: pass.FuncDecls()}
	return analysis.RunFlow(pass, analysis.Flow[bool]{
		Trigger: c.isSourceCall,
		Step: func(b *cfg.Block, s state, report analysis.Report) {
			for _, n := range b.Nodes {
				// Sinks see the state before this node's own comparisons
				// sanitize anything: the check must precede the use.
				c.checkSinks(n, s, report)
				c.applyTaint(n, s)
				c.sanitize(n, s)
			}
		},
		// A value tainted on either path is tainted.
		Join: func(bool, bool, bool, bool) bool { return true },
	})
}

// applyTaint updates variable taint for assignments and declarations.
func (c *checker) applyTaint(n ast.Node, out state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					c.setTaint(lhs, c.tainted(n.Rhs[i], out), out)
				}
			} else if len(n.Rhs) == 1 {
				// Multi-value: a source call taints every integer result.
				t := c.tainted(n.Rhs[0], out)
				for _, lhs := range n.Lhs {
					c.setTaint(lhs, t, out)
				}
			}
			return
		}
		// Compound ops (+=, <<=, ...): taint is sticky and absorbs the RHS.
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			c.setTaint(n.Lhs[0], c.tainted(n.Lhs[0], out) || c.tainted(n.Rhs[0], out), out)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					c.setTaint(name, c.tainted(vs.Values[i], out), out)
				}
			}
		}
	}
}

func (c *checker) setTaint(lhs ast.Expr, tainted bool, out state) {
	key, ok := analysis.ExprKey(c.pass.TypesInfo, lhs)
	if !ok {
		return
	}
	if tainted && isIntegerExpr(c.pass.TypesInfo, lhs) {
		out[key] = true
	} else if !tainted {
		delete(out, key)
	}
}

// tainted reports whether evaluating e can yield an untrusted integer
// under the current state.
func (c *checker) tainted(e ast.Expr, s state) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		key, ok := analysis.ExprKey(c.pass.TypesInfo, e)
		return ok && s[key]
	case *ast.ParenExpr:
		return c.tainted(e.X, s)
	case *ast.StarExpr:
		return c.tainted(e.X, s)
	case *ast.UnaryExpr:
		return c.tainted(e.X, s)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
			return c.tainted(e.X, s) || c.tainted(e.Y, s)
		}
		return false
	case *ast.CallExpr:
		if c.isSourceCall(e) {
			return true
		}
		// Integer conversions pass taint through: int(n), uint32(n).
		if len(e.Args) == 1 {
			if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
				if isInteger(tv.Type) {
					return c.tainted(e.Args[0], s)
				}
			}
		}
		return false
	}
	return false
}

// isSourceCall recognizes taint sources: encoding/binary decoders and
// in-package helpers carrying the untrusted directive.
func (c *checker) isSourceCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "encoding/binary" && binarySources[fn.Name()] {
		return true
	}
	if decl, ok := c.decls[fn]; ok && analysis.FuncHasDirective(decl, UntrustedDirective) {
		return true
	}
	return false
}

// sanitize clears taint for every variable used as a relational
// comparison operand anywhere in n: a bound check on any branch shape
// counts, per the package contract.
func (c *checker) sanitize(n ast.Node, out state) {
	cfg.Inspect(n, func(x ast.Node) bool {
		be, ok := x.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			c.clearOperand(be.X, out)
			c.clearOperand(be.Y, out)
		}
		return true
	})
}

// clearOperand removes taint from every variable mentioned in a
// comparison operand: bounds are routinely checked through derived
// expressions (`uint64(n)*8+4 > remaining`), and the mention is what
// certifies the author thought about the value's range.
func (c *checker) clearOperand(e ast.Expr, out state) {
	cfg.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if key, ok := analysis.ExprKey(c.pass.TypesInfo, x); ok {
				delete(out, key)
			}
		case *ast.SelectorExpr:
			if key, ok := analysis.ExprKey(c.pass.TypesInfo, x); ok {
				delete(out, key)
			}
		}
		return true
	})
}

// checkSinks reports tainted values reaching a dangerous use in n.
func (c *checker) checkSinks(n ast.Node, s state, report analysis.Report) {
	if report == nil {
		return
	}
	reportSink := func(e ast.Expr, sink string) {
		report(e.Pos(), "untrusted length %s reaches %s without a bound check", types.ExprString(e), sink)
	}
	info := c.pass.TypesInfo
	cfg.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range x.Args[1:] {
						if c.tainted(arg, s) {
							reportSink(arg, "make")
						}
					}
				}
			}
			if analysis.IsPkgFunc(info, x, "io", "CopyN") && len(x.Args) == 3 && c.tainted(x.Args[2], s) {
				reportSink(x.Args[2], "io.CopyN")
			}
		case *ast.IndexExpr:
			if isSliceOrArray(info.TypeOf(x.X)) && c.tainted(x.Index, s) {
				reportSink(x.Index, "indexing")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
				if bound != nil && c.tainted(bound, s) {
					reportSink(bound, "slice bounds")
				}
			}
		}
		return true
	})
}

func isInteger(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isInteger(t)
}

func isSliceOrArray(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
