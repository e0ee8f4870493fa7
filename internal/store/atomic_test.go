package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAtomicWriteFile covers the happy path and the two failure
// contracts: a failed write leaves the previous target untouched, and
// no temp file survives any outcome.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	writeString := func(s string) func(*os.File) error {
		return func(f *os.File) error {
			_, err := f.WriteString(s)
			return err
		}
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, "out.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("content %q, want %q", got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp") {
				t.Errorf("leaked temp file %s", e.Name())
			}
		}
	}

	if err := AtomicWriteFile(dir, "out.txt", writeString("v1\n")); err != nil {
		t.Fatal(err)
	}
	check("v1\n")

	// A failing writer must not touch the existing file, and leaves no
	// temp residue.
	boom := errors.New("boom")
	err := AtomicWriteFile(dir, "out.txt", func(f *os.File) error {
		if err := writeString("half-written garbage")(f); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	check("v1\n")

	// Replacement goes through in full.
	if err := AtomicWriteFile(dir, "out.txt", writeString("v2\n")); err != nil {
		t.Fatal(err)
	}
	check("v2\n")
}
