package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/taccstats"
)

// parseRaw parses the raw file at path, keeping a materialized copy of
// every record.
func parseRaw(t *testing.T, path string) (*taccstats.File, []taccstats.Record, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []taccstats.Record
	parsed, err := taccstats.ParseStream(f, func(rec *taccstats.Record) error {
		recs = append(recs, rec.Materialize())
		return nil
	})
	return parsed, recs, err
}

func TestDaemonWritesParseableOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "node.raw")
	if err := run("ranger", "wrf", 777, 6, out, 9, 0, 2); err != nil {
		t.Fatal(err)
	}
	parsed, recs, err := parseRaw(t, out)
	if err != nil {
		t.Fatal(err)
	}
	// begin + 6 samples + end.
	if len(recs) != 8 {
		t.Fatalf("records = %d, want 8", len(recs))
	}
	if recs[0].Mark != "begin" || recs[0].JobID != 777 {
		t.Errorf("begin mark: %+v", recs[0])
	}
	if recs[7].Mark != "end" {
		t.Errorf("end mark: %+v", recs[7])
	}
	if parsed.Arch != "amd64_opteron" {
		t.Errorf("arch = %q", parsed.Arch)
	}
}

func TestDaemonLonestar(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ls4.raw")
	if err := run("lonestar4", "gromacs", 1, 2, out, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := parseRaw(t, out)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Arch != "intel_westmere" {
		t.Errorf("arch = %q", parsed.Arch)
	}
	if _, ok := parsed.Schemas["intel_pmc"]; !ok {
		t.Error("missing intel_pmc schema")
	}
}

func TestDaemonErrors(t *testing.T) {
	if err := run("cray", "wrf", 1, 2, "-", 1, 0, 2); err == nil {
		t.Error("unknown cluster should error")
	}
	if err := run("ranger", "doom", 1, 2, "-", 1, 0, 2); err == nil {
		t.Error("unknown app should error")
	}
}

func TestDaemonTruncateAt(t *testing.T) {
	// A simulated crash after N bytes must leave exactly N bytes on
	// disk — a file cut mid-record — and report success (the truncated
	// artifact is the point).
	const limit = 1001
	out := filepath.Join(t.TempDir(), "crashed.raw")
	if err := run("ranger", "wrf", 777, 6, out, 9, limit, 2); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != limit {
		t.Fatalf("crashed file is %d bytes, want exactly %d", st.Size(), limit)
	}
	if _, recs, perr := parseRaw(t, out); perr == nil && len(recs) >= 8 {
		t.Fatalf("crash-truncated file parsed as complete (%d records)", len(recs))
	}
}

// flakyWriter fails its first n writes with a transient error, and can
// fail Close.
type flakyWriter struct {
	failures int
	closeErr error
	data     []byte
	attempts int
}

type tempErr struct{}

func (tempErr) Error() string   { return "temporary stall" }
func (tempErr) Temporary() bool { return true }

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.attempts++
	if f.failures > 0 {
		f.failures--
		return 0, tempErr{}
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *flakyWriter) Close() error { return f.closeErr }

func TestRetrySinkRecoversTransientWrites(t *testing.T) {
	fw := &flakyWriter{failures: 2}
	var backoffs []int
	s := &retrySink{w: fw, retries: 3, backoff: func(a int) { backoffs = append(backoffs, a) }}
	n, err := s.Write([]byte("payload"))
	if err != nil || n != 7 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if string(fw.data) != "payload" {
		t.Fatalf("sink holds %q", fw.data)
	}
	if len(backoffs) != 2 {
		t.Fatalf("backoff calls = %v, want 2", backoffs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestRetrySinkPropagatesPersistentErrors(t *testing.T) {
	fw := &flakyWriter{failures: 10}
	s := &retrySink{w: fw, retries: 2}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("exhausted retries must propagate the write error")
	}
	if fw.attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", fw.attempts)
	}

	closeFail := errors.New("close failed")
	s2 := &retrySink{w: &flakyWriter{closeErr: closeFail}}
	if err := s2.Close(); !errors.Is(err, closeFail) {
		t.Fatalf("close error dropped: %v", err)
	}

	s3 := &retrySink{w: &permFailWriter{}, retries: 5}
	if _, err := s3.Write([]byte("x")); err == nil {
		t.Fatal("non-transient write errors must not be retried into success")
	}
}

type permFailWriter struct{}

func (permFailWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk on fire") }
func (permFailWriter) Close() error                { return nil }
