package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/reference"
	"supremm/internal/sched"
	"supremm/internal/sim"
	"supremm/internal/store"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// parseRaw reads the raw file at path through reference.Parse.
func parseRaw(t *testing.T, path string) (*reference.RawFile, error) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return reference.Parse(data)
}

func TestDaemonWritesParseableOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "node.raw")
	if err := run("ranger", "wrf", 777, 6, out, 9, 0, 2); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseRaw(t, out)
	if err != nil {
		t.Fatal(err)
	}
	recs := parsed.Records
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

// TestDaemonAgreesWithModel: the demo node runs the simulator's usage
// mapping, so its raw file, ingested like a fleet node's day file,
// yields every metric of the job record that the simulator's fast path
// accumulates from the same behaviour, within the tolerances of
// internal/sim's TestRawIngestMatchesFastPath.
func TestDaemonAgreesWithModel(t *testing.T) {
	const (
		jobID   = 777
		samples = 12
		seed    = 9
	)
	cc := cluster.RangerConfig()
	cfg := sim.DefaultConfig(cc, seed)
	host := "c000-000." + cc.Name
	dir := t.TempDir()
	hostDir := filepath.Join(dir, "raw", host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	day := int(cfg.EpochUnix / 86400)
	if err := run(cc.Name, "wrf", jobID, samples, filepath.Join(hostDir, taccstats.DayFileName(day)), seed, 0, 2); err != nil {
		t.Fatal(err)
	}

	job := demoJob(workload.AppByName(workload.DefaultApps(), "wrf"), jobID, samples, cfg)
	start := cfg.EpochUnix
	end := start + int64(samples*cfg.StepMin*60)
	acct := sched.AcctRecord{
		Cluster: cc.Name, Owner: job.User.Name, JobName: job.App.Name, JobID: jobID,
		Account: string(job.User.Science), Submit: start, Start: start, End: end,
		Slots: cc.CoresPerNode(), NodeList: []string{host},
	}
	raw, err := ingest.IngestRawOpts(filepath.Join(dir, "raw"), []sched.AcctRecord{acct}, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Store.Len() != 1 {
		t.Fatalf("raw store holds %d records, want 1", raw.Store.Len())
	}
	got := raw.Store.Record(0)

	acc := ingest.NewAccumulator()
	acc.StartJob(ingest.IdentityFromJob(job, cc.Name, start, start, end, job.Status))
	b := workload.NewBehavior(job, cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB)
	for i := 0; i < samples; i++ {
		if err := acc.AddUsage(jobID, 1, cfg.StepMin*60, b.Step(cfg.StepMin)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := acc.FinishJob(jobID)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range store.AllMetrics() {
		rel, abs := 0.15, 0.05
		switch m {
		case store.MetricCPUIdle:
			abs = 0.02
		case store.MetricScratchWrite:
			rel = 0.35
		}
		if a, b := got.Value(m), want.Value(m); math.Abs(a-b) > rel*math.Abs(b)+abs {
			t.Errorf("%s: taccstatsd %v vs model %v", m, a, b)
		}
	}
}

func TestDaemonLonestar(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ls4.raw")
	if err := run("lonestar4", "gromacs", 1, 2, out, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseRaw(t, out)
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
	if parsed, perr := parseRaw(t, out); perr == nil && len(parsed.Records) >= 8 {
		t.Fatalf("crash-truncated file parsed as complete (%d records)", len(parsed.Records))
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
