package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunOutput holds the example's output to testdata/stdout.golden.
func TestRunOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/stdout.golden:\n%s", out.Bytes())
	}
}
