// Package analysistest runs a supremmlint analyzer over a testdata
// package and checks its diagnostics against the `// want` comment
// expectations embedded in the sources, mirroring the contract of
// golang.org/x/tools/go/analysis/analysistest:
//
//	rand.Intn(6) // want `seeded \*rand\.Rand`
//
// Each `// want` comment carries one or more backquoted or quoted
// regular expressions; every diagnostic reported on that line must be
// matched by one of them, and every expectation must be consumed.
// Testdata packages may span multiple files; expectations are matched
// per (file, line).
//
// A pattern may be preceded by a column constraint `@c` or `@c1-c2`,
// which additionally requires the diagnostic's column to equal c (or
// fall within [c1,c2]):
//
//	mu.Lock() // want @2-4 `not released on every path`
//
// Column constraints pin an expectation to one of several expressions
// on the same line — without them, line-only matching cannot tell two
// same-message findings apart.
package analysistest

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/analysis"
	"supremm/internal/analysis/loadpkg"
)

// Run loads testdata/src/<pkg> relative to the calling test's directory
// and applies the analyzer, failing the test on any mismatch between
// reported diagnostics and want expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := loadpkg.New(root)
	p, err := l.CheckDir(dir, pkg)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		PkgPath:   p.PkgPath,
		Allows:    analysis.CollectAllows(l.Fset, p.Files),
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, l.Fset, dir)
	for _, d := range pass.Diagnostics() {
		key := lineKey{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line}
		matched := false
		for i, w := range wants[key] {
			if !w.used && w.matchesColumn(d.Pos.Column) && w.re.MatchString(d.Message) {
				wants[key][i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d:%d: %s", key.file, key.line, d.Pos.Column, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic%s matching %q", key.file, key.line, w.colDesc(), w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
	// colLo/colHi constrain the diagnostic's column when colLo > 0.
	colLo, colHi int
}

func (w want) matchesColumn(col int) bool {
	return w.colLo == 0 || (col >= w.colLo && col <= w.colHi)
}

func (w want) colDesc() string {
	switch {
	case w.colLo == 0:
		return ""
	case w.colLo == w.colHi:
		return " at column " + strconv.Itoa(w.colLo)
	default:
		return " in columns " + strconv.Itoa(w.colLo) + "-" + strconv.Itoa(w.colHi)
	}
}

// wantPattern tokenizes a want comment body: column constraints
// (`@c` / `@c1-c2`) apply to the next pattern; patterns are backquoted
// or double-quoted regular expressions.
var wantPattern = regexp.MustCompile("@(\\d+)(?:-(\\d+))?|`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, dir string) map[lineKey][]want {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[lineKey][]want)
	for _, pkg := range pkgs {
		for filename, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					key := lineKey{file: filepath.Base(filename), line: fset.Position(c.Pos()).Line}
					colLo, colHi := 0, 0
					for _, m := range wantPattern.FindAllStringSubmatch(text[len("want "):], -1) {
						if m[1] != "" {
							colLo, _ = strconv.Atoi(m[1])
							colHi = colLo
							if m[2] != "" {
								colHi, _ = strconv.Atoi(m[2])
							}
							if colHi < colLo {
								t.Fatalf("%s:%d: bad column range @%s-%s", key.file, key.line, m[1], m[2])
							}
							continue
						}
						expr := m[3]
						if expr == "" {
							expr = m[4]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", key.file, key.line, expr, err)
						}
						wants[key] = append(wants[key], want{re: re, colLo: colLo, colHi: colHi})
						colLo, colHi = 0, 0
					}
				}
			}
		}
	}
	return wants
}
