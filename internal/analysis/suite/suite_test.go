package suite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScopesNameExistingCode holds every package and file a scope
// names to the module: a rename would otherwise drop code from a check
// without a word.
func TestScopesNameExistingCode(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	for _, sc := range Analyzers() {
		var dirs []string
		for _, p := range sc.Pkgs {
			tree, subtree := strings.CutSuffix(p, "/...")
			rel, ok := strings.CutPrefix(tree, "supremm")
			if !ok || rel != "" && rel[0] != '/' {
				t.Errorf("%s: %s is outside module supremm", sc.Name, p)
				continue
			}
			dir := filepath.Join(root, filepath.FromSlash(rel))
			if subtree {
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s: %s names no directory", sc.Name, p)
				}
				continue
			}
			if gofiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gofiles) == 0 {
				t.Errorf("%s: %s names no package", sc.Name, p)
			}
			dirs = append(dirs, dir)
		}
		for _, base := range sc.Files {
			found := false
			for _, dir := range dirs {
				if _, err := os.Stat(filepath.Join(dir, base)); err == nil {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no package of its scope has a file %s", sc.Name, base)
			}
		}
	}
}

func TestCoversPkg(t *testing.T) {
	sc := Scoped{Pkgs: []string{"supremm/internal/serve", "supremm/cmd/..."}}
	for pkg, want := range map[string]bool{
		"supremm/internal/serve":     true,
		"supremm/internal/serve/sub": false,
		"supremm/internal/server":    false,
		"supremm/cmd":                true,
		"supremm/cmd/ingest":         true,
		"supremm/cmdx":               false,
	} {
		if got := sc.CoversPkg(pkg); got != want {
			t.Errorf("CoversPkg(%q) = %v, want %v", pkg, got, want)
		}
	}
}
