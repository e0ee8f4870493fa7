package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module named supremm so the suite's
// package scopes ("supremm/internal/serve", ...) apply to the fixture
// packages.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module supremm\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const seededServe = `package serve

import "sync"

type Server struct {
	mu sync.Mutex
	n  int
}

// Bad leaks the mutex on the early return.
func (s *Server) Bad() int {
	s.mu.Lock()
	if s.n > 0 {
		return s.n
	}
	s.mu.Unlock()
	return 0
}

// Good releases on every path.
func (s *Server) Good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n //supremmlint:allow walltime: nothing here ever fired this
}
`

func TestRunReportsSeededViolationAndStaleAllow(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/serve/serve.go": seededServe,
	})
	var out, errw bytes.Buffer
	diags, err := run(dir, []string{"./..."}, false, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var sawLock, sawStale bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lockcheck":
			sawLock = true
			if !strings.Contains(d.Message, "s.mu.Lock is not released") {
				t.Errorf("lockcheck message = %q", d.Message)
			}
		case "staleallow":
			sawStale = true
			if !strings.Contains(d.Message, "walltime") {
				t.Errorf("staleallow message = %q", d.Message)
			}
		default:
			t.Errorf("unexpected analyzer %s: %s", d.Analyzer, d.Message)
		}
	}
	if !sawLock {
		t.Error("seeded lockcheck violation not reported")
	}
	if !sawStale {
		t.Error("stale walltime allow not reported")
	}
	if !strings.Contains(out.String(), "supremmlint:") {
		t.Errorf("summary missing from output: %q", out.String())
	}
	if !strings.Contains(out.String(), " in ") {
		t.Errorf("summary missing timing: %q", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/serve/serve.go": seededServe,
	})
	var out, errw bytes.Buffer
	diags, err := run(dir, []string{"./..."}, true, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var records []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &records); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(records) != len(diags) {
		t.Fatalf("JSON has %d records, run returned %d diagnostics", len(records), len(diags))
	}
	for _, r := range records {
		if r.File != filepath.Join("internal", "serve", "serve.go") {
			t.Errorf("file not relativized to module dir: %q", r.File)
		}
		if r.Line <= 0 || r.Column <= 0 || r.Analyzer == "" || r.Message == "" {
			t.Errorf("incomplete record: %+v", r)
		}
	}
	// The summary moves to stderr so stdout stays parseable.
	if strings.Contains(out.String(), "packages checked") {
		t.Error("summary leaked into JSON stdout")
	}
	if !strings.Contains(errw.String(), "packages checked") {
		t.Errorf("summary missing from stderr: %q", errw.String())
	}
}

func TestRunCleanFixtureHasNoFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/serve/serve.go": `package serve

import "sync"

type Server struct {
	mu sync.Mutex
	n  int
}

func (s *Server) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`,
	})
	var out, errw bytes.Buffer
	diags, err := run(dir, []string{"./..."}, false, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("clean fixture produced findings: %v", diags)
	}
}

// lockLeak is a file whose Leak method holds s.mu past its early
// return: a lockcheck finding on line 12, the Lock call. The last two
// %s verbs put a comment on line 11 (the line above) and on line 12.
const lockLeak = `package %s

import "sync"

type Server struct {
	mu sync.Mutex
	n  int
}

func (s *Server) Leak() int {
	%s
	s.mu.Lock() %s
	if s.n > 0 {
		return s.n
	}
	s.mu.Unlock()
	return 0
}
`

func leakFile(pkg, above, same string) string {
	return fmt.Sprintf(lockLeak, pkg, above, same)
}

// TestRunAllowLedger drives the allow ledger through the driver: which
// directives suppress a finding, and which the stale sweep reports.
func TestRunAllowLedger(t *testing.T) {
	const leak = "s.mu.Lock is not released"
	for _, tc := range []struct {
		name  string
		files map[string]string
		// want lists each finding as "file:line analyzer: message part".
		want []string
	}{
		{
			name:  "unallowed",
			files: map[string]string{"internal/serve/a.go": leakFile("serve", "", "")},
			want:  []string{"internal/serve/a.go:12 lockcheck: " + leak},
		},
		{
			name: "same line and line above are both used",
			files: map[string]string{
				"internal/serve/a.go": leakFile("serve", "", "//supremmlint:allow lockcheck: handed to the caller"),
				"internal/store/a.go": leakFile("store", "//supremmlint:allow lockcheck: handed to the caller", ""),
			},
		},
		{
			name: "allow all is live where an analyzer used it",
			files: map[string]string{
				"internal/serve/a.go": leakFile("serve", "", "//supremmlint:allow all: reviewed"),
				"internal/store/a.go": leakFile("store", "//supremmlint:allow all: reviewed", ""),
			},
		},
		{
			name: "allow all is stale where no analyzer used it",
			files: map[string]string{
				"internal/serve/a.go": `package serve

//supremmlint:allow all: nothing here fires
func Quiet() {}
`,
			},
			want: []string{"internal/serve/a.go:3 staleallow: stale //supremmlint:allow all"},
		},
		{
			name: "a directive for another analyzer does not cover the finding",
			files: map[string]string{
				"internal/serve/a.go": leakFile("serve", "", "//supremmlint:allow deferclose: wrong analyzer"),
			},
			want: []string{
				"internal/serve/a.go:12 lockcheck: " + leak,
				"internal/serve/a.go:12 staleallow: stale //supremmlint:allow deferclose",
			},
		},
		{
			name: "unknown analyzer",
			files: map[string]string{
				"internal/serve/a.go": leakFile("serve", "", "//supremmlint:allow lockchek: typo"),
			},
			want: []string{
				"internal/serve/a.go:12 lockcheck: " + leak,
				"internal/serve/a.go:12 staleallow: names unknown analyzer lockchek",
			},
		},
		{
			// Same base name, same line: only the package's own
			// directives cover its findings.
			name: "an allow in one package does not cover another",
			files: map[string]string{
				"internal/serve/a.go": leakFile("serve", "", ""),
				"internal/store/a.go": `package store

type Store struct{ n int }

func (s *Store) Size() int {
	return s.n
}

func (s *Store) Empty() bool {
	// The directive below sits on line 12, the line of
	// serve/a.go's finding.
	return s.n == 0 //supremmlint:allow lockcheck: covers nothing here
}
`,
			},
			want: []string{
				"internal/serve/a.go:12 lockcheck: " + leak,
				"internal/store/a.go:12 staleallow: stale //supremmlint:allow lockcheck",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, tc.files)
			var out, errw bytes.Buffer
			diags, err := run(dir, []string{"./..."}, false, &out, &errw)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var got []string
			for _, d := range diags {
				got = append(got, fmt.Sprintf("%s:%d %s: %s", relativeTo(dir, d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i, w := range tc.want {
				at, part, _ := strings.Cut(w, ": ")
				if !strings.HasPrefix(got[i], at+": ") || !strings.Contains(got[i], part) {
					t.Errorf("finding %d = %q, want %q", i, got[i], w)
				}
			}
		})
	}
}
