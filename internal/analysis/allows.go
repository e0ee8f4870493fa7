package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Allows is one package's ledger of //supremmlint:allow directives.
// The driver collects it once per package and hands it to every pass
// over the package; Reportf marks each directive that covers a
// suppressed finding, and StaleAllows reads the marks once every pass
// over the package has run.
type Allows struct {
	dirs []allow // source order
}

// allow is one directive: the analyzer it names ("all" for a blanket
// allow), where it sits, and whether it covered a finding.
type allow struct {
	analyzer string
	pos      token.Position
	used     bool
}

// CollectAllows builds the ledger of every allow directive in files.
func CollectAllows(fset *token.FileSet, files []*ast.File) *Allows {
	a := &Allows{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, ok := allowTarget(c.Text); ok {
					a.dirs = append(a.dirs, allow{analyzer: name, pos: fset.Position(c.Pos())})
				}
			}
		}
	}
	return a
}

// cover reports whether a directive naming analyzer, or "all", sits on
// pos's line or the line directly above it, and marks each such
// directive used.
func (a *Allows) cover(analyzer string, pos token.Position) bool {
	if a == nil {
		return false
	}
	covered := false
	for i := range a.dirs {
		d := &a.dirs[i]
		if d.pos.Filename == pos.Filename && (d.pos.Line == pos.Line || d.pos.Line == pos.Line-1) &&
			(d.analyzer == analyzer || d.analyzer == "all") {
			d.used = true
			covered = true
		}
	}
	return covered
}

// allowTarget extracts the analyzer name from an allow directive
// comment, e.g. "//supremmlint:allow hotalloc: interned once per file".
func allowTarget(comment string) (string, bool) {
	const prefix = "//supremmlint:allow"
	if !strings.HasPrefix(comment, prefix) {
		return "", false
	}
	rest := strings.TrimSpace(comment[len(prefix):])
	if rest == "" {
		return "", false
	}
	name := rest
	if i := strings.IndexAny(rest, " :\t"); i >= 0 {
		name = rest[:i]
	}
	return name, true
}

// StaleAllowAnalyzerName labels the driver-level stale-directive check
// in diagnostics. It is not a Pass analyzer: it reads the ledger after
// every pass over the package has finished.
const StaleAllowAnalyzerName = "staleallow"

// StaleAllows reports the allow directives in the ledger that earned
// nothing: a directive that covered no finding (including one whose
// analyzer no longer runs on that file at all), or one naming an
// analyzer that does not exist; known is the set of valid analyzer
// names. Stale directives are findings themselves: a dead allow is an
// undocumented hole in the invariant it once blessed.
func StaleAllows(a *Allows, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range a.dirs {
		var msg string
		switch {
		case d.used:
			continue
		case d.analyzer == "all":
			msg = "stale //supremmlint:allow all: no analyzer reports anything here; remove the directive"
		case !known[d.analyzer]:
			msg = "//supremmlint:allow names unknown analyzer " + d.analyzer
		default:
			msg = "stale //supremmlint:allow " + d.analyzer + ": the analyzer reports nothing on this line; remove the directive"
		}
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: StaleAllowAnalyzerName, Message: msg})
	}
	return out
}
