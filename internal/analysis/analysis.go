// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that supremmlint's analyzers
// are written against. The container this repo builds in has no module
// cache and no network, so the canonical x/tools framework cannot be
// vendored; this package provides the same Analyzer/Pass/Diagnostic
// contract on top of the standard library's go/ast, go/token and
// go/types, which is all the supremmlint analyzers need.
//
// The escape hatch shared by every analyzer is the comment directive
//
//	//supremmlint:allow <analyzer> [reason]
//
// placed on the flagged line or on the line immediately above it.
// Function-scoped blessings use a doc-comment directive the individual
// analyzer defines (for example counterdelta's supremmlint:wrapsafe).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"supremm/internal/analysis/cfg"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is the one-line invariant statement shown by -help.
	Doc string
	// Run inspects a package and reports findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path ("supremm/internal/ingest").
	PkgPath string
	// Allows is the package's allow ledger, shared by every pass over
	// the package (CollectAllows). Nil suppresses nothing.
	Allows *Allows

	diags []Diagnostic
	cfgs  map[*ast.BlockStmt]*cfg.Graph
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an allow directive in the
// package's ledger covers it, marking the directive used. Suppressed
// findings vanish: the directive is the reviewed, greppable record of
// the exception.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Allows.cover(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// FuncHasDirective reports whether fn's doc comment carries the given
// supremmlint directive (e.g. "supremmlint:wrapsafe"). Analyzers use it
// for function-scoped blessings of reviewed helpers.
func FuncHasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.Contains(c.Text, directive) {
			return true
		}
	}
	return false
}

// ExprKey canonicalizes a lock/resource path expression — identifier
// chains with field selections, possibly parenthesized or dereferenced
// — into a key stable across mentions of the same path in one
// function: the root identifier's object (by declaration position)
// followed by the field names. Expressions rooted in calls, index
// expressions or literals are not trackable and report ok=false.
func ExprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos()), true
	case *ast.SelectorExpr:
		base, ok := ExprKey(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return ExprKey(info, e.X)
	case *ast.StarExpr:
		return ExprKey(info, e.X)
	}
	return "", false
}

// FuncInfo identifies one function-like body in a file: a declared
// function/method (Decl set) or a function literal (Lit set).
type FuncInfo struct {
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Name is a human-readable identifier for diagnostics: the declared
	// name, or "<decl>.func" for a literal nested in decl.
	Name string
	Body *ast.BlockStmt
}

// Functions enumerates every function declaration and function literal
// in f, outermost first. Flow-sensitive analyzers iterate these and
// build one CFG per entry, so statements inside a literal are analyzed
// against the literal's own control flow, not its host's.
func (p *Pass) Functions(f *ast.File) []FuncInfo {
	var out []FuncInfo
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, FuncInfo{Decl: fd, Name: fd.Name.Name, Body: fd.Body})
		host := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, FuncInfo{Lit: lit, Name: host + ".func", Body: lit.Body})
			}
			return true
		})
	}
	return out
}

// CFG returns the control-flow graph for fn, built on first request and
// cached for the pass. Calls the type checker proves non-returning
// (os.Exit, log.Fatal*) terminate their blocks with no out-edges.
func (p *Pass) CFG(fn FuncInfo) *cfg.Graph {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*cfg.Graph)
	}
	if g, ok := p.cfgs[fn.Body]; ok {
		return g
	}
	g := cfg.New(fn.Body, cfg.Options{NoReturn: p.isNoReturn})
	p.cfgs[fn.Body] = g
	return g
}

// noReturnFuncs never return control to the caller; deferred functions
// do not run past them.
var noReturnFuncs = map[string][]string{
	"os":      {"Exit"},
	"log":     {"Fatal", "Fatalf", "Fatalln"},
	"runtime": {"Goexit"},
}

func (p *Pass) isNoReturn(call *ast.CallExpr) bool {
	for pkg, names := range noReturnFuncs {
		for _, name := range names {
			if IsPkgFunc(p.TypesInfo, call, pkg, name) {
				return true
			}
		}
	}
	return false
}

// FuncDecls maps each declared function/method object in the package's
// files to its declaration, so analyzers can consult doc-comment
// directives on callees (untrustedlen's taint sources).
func (p *Pass) FuncDecls() map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now), resolving through the type checker so
// aliased imports are still caught.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}
