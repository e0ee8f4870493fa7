// Command supremmlint is the project's multichecker: it type-checks
// the tree and runs every analyzer in internal/analysis/suite over the
// packages its invariant governs. `make lint` wires it into the build;
// CI runs it on every push and uploads the machine-readable findings.
//
// Usage:
//
//	supremmlint [-C moduleDir] [-json] [packages...]
//
// With no package arguments it checks ./... . -json replaces the
// human-readable lines with a JSON array of findings (file, line,
// column, analyzer, message) on stdout, moving the summary line to
// stderr so the artifact stays parseable.
//
// The driver reads each package's //supremmlint:allow directives once
// into a ledger every pass over the package shares; a pass marks the
// directives that suppress its findings. After the package's passes, a
// directive that suppressed nothing — its analyzer is gone,
// mis-scoped, or simply no longer fires there — is itself reported
// (analyzer "staleallow"). A dead allow is an undocumented hole in the
// invariant it once blessed.
//
// The exit status is 1 when any finding (including a stale allow) is
// reported, 2 on load/usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"supremm/internal/analysis"
	"supremm/internal/analysis/loadpkg"
	"supremm/internal/analysis/suite"
)

func main() {
	dir := flag.String("C", ".", "module directory to lint")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: supremmlint [-C moduleDir] [-json] [packages...]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, sc := range suite.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", sc.Name, sc.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", analysis.StaleAllowAnalyzerName,
			"flags //supremmlint:allow directives that no longer suppress anything")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := run(*dir, patterns, *jsonOut, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supremmlint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable record CI archives per finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads the requested packages, applies the scoped suite plus the
// stale-allow check, and prints findings to out (summary to errw),
// returning them for the caller (and tests) to inspect.
func run(dir string, patterns []string, jsonOut bool, out, errw io.Writer) ([]analysis.Diagnostic, error) {
	start := time.Now()
	loader := loadpkg.New(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	analyzers := suite.Analyzers()
	known := map[string]bool{analysis.StaleAllowAnalyzerName: true}
	for _, sc := range analyzers {
		known[sc.Name] = true
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		allows := analysis.CollectAllows(loader.Fset, pkg.Files)
		for _, sc := range analyzers {
			if !sc.CoversPkg(pkg.PkgPath) {
				continue
			}
			var files []*ast.File
			for _, f := range pkg.Files {
				if sc.CoversFile(filepath.Base(loader.Fset.Position(f.Pos()).Filename)) {
					files = append(files, f)
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  sc.Analyzer,
				Fset:      loader.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.PkgPath,
				Allows:    allows,
			}
			if err := sc.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", sc.Name, pkg.PkgPath, err)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
		diags = append(diags, analysis.StaleAllows(allows, known)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	if jsonOut {
		records := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			records = append(records, jsonFinding{
				File:     relativeTo(dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			return nil, err
		}
	} else {
		for _, d := range diags {
			if _, err := fmt.Fprintln(out, d); err != nil {
				return nil, err
			}
		}
	}
	summaryTo := out
	if jsonOut {
		summaryTo = errw
	}
	if _, err := fmt.Fprintf(summaryTo, "supremmlint: %d packages checked, %d analyzers, %d findings in %s\n",
		len(pkgs), len(analyzers)+1, len(diags), time.Since(start).Round(time.Millisecond)); err != nil {
		return nil, err
	}
	return diags, nil
}

// relativeTo rewrites filename relative to the module dir when it sits
// inside it, keeping JSON artifacts stable across checkouts.
func relativeTo(dir, filename string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(abs, filename)
	if err != nil || len(rel) >= 2 && rel[:2] == ".." {
		return filename
	}
	return rel
}
