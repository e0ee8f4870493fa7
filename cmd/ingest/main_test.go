package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/sim"
	"supremm/internal/store"
)

// run is the CLI at one worker under the default (lenient) policy.
func run(rawDir, acctPath, out string) error {
	return runWorkers(rawDir, acctPath, out, 1, ingest.Options{Policy: ingest.Lenient})
}

// assertNoTempFiles fails if any ".<name>.tmp*" work file is left in
// dir — leaked temps would accumulate on the ingest host.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
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

func TestIngestCommandEndToEnd(t *testing.T) {
	work := t.TempDir()
	rawDir := filepath.Join(work, "raw")
	cc := cluster.RangerConfig().Scaled(6)
	cfg := sim.DefaultConfig(cc, 41)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.UtilizationTarget = 2
	cfg.RawDir = rawDir
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acctPath := filepath.Join(work, "accounting.log")
	af, err := os.Create(acctPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.WriteAcct(af, res.Acct); err != nil {
		t.Fatal(err)
	}
	af.Close()

	out := filepath.Join(work, "out")
	if err := run(rawDir, acctPath, out); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(filepath.Join(out, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	st, err := store.Load(jf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != res.Store.Len() {
		t.Errorf("ingested %d jobs, sim had %d", st.Len(), res.Store.Len())
	}
	// Shard repair backs onto the JSON-lines file; no columnar monolith
	// is written beside it.
	if _, from, err := store.LoadBackingStore(out, nil); err != nil || from != "jobs.jsonl" {
		t.Fatalf("repair backing loaded from %q (err %v), want jobs.jsonl", from, err)
	}
	if _, err := os.Stat(filepath.Join(out, "jobs.supremm")); !os.IsNotExist(err) {
		t.Errorf("ingest wrote jobs.supremm (stat err %v), want no columnar monolith", err)
	}
	sf, err := os.Open(filepath.Join(out, "series.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	series, err := store.LoadSeries(sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Error("empty series")
	}
	q, err := serve.LoadQuality(out)
	if err != nil || q == nil {
		t.Fatalf("quality.json: %v, %v", q, err)
	}
	if q.FilesScanned == 0 {
		t.Error("quality report scanned no files")
	}
	if q.FilesQuarantined != 0 {
		t.Errorf("clean sim archive quarantined %d files", q.FilesQuarantined)
	}
	// The time-partitioned form rides alongside the monolithic files:
	// a CRC-checked manifest naming one shard per job-end day, whose
	// union is record-for-record the monolithic store.
	ss, err := store.LoadShardSet(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumShards() < 2 {
		t.Errorf("two-day sim produced %d shards, want >= 2", ss.NumShards())
	}
	if stats := ss.LoadStats(); stats.Loaded != ss.NumShards() || stats.Reused != 0 {
		t.Errorf("cold shard load stats %+v, want %d loaded / 0 reused", stats, ss.NumShards())
	}
	if ss.Len() != st.Len() {
		t.Errorf("shard set has %d jobs, jsonl has %d", ss.Len(), st.Len())
	}
	for i, got := range ss.Scan(store.Filter{}).Records() {
		if got != st.Record(i) {
			t.Fatalf("row %d: shard %+v != jsonl %+v", i, got, st.Record(i))
		}
	}
	// All outputs went through the atomic temp+rename path; none of
	// its work files may survive the run.
	assertNoTempFiles(t, out)
}

func TestIngestCommandPolicies(t *testing.T) {
	work := t.TempDir()
	rawDir := filepath.Join(work, "raw")
	hostDir := filepath.Join(rawDir, "h1")
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := "$tacc_stats 2.0\n!cpu user,E idle,E\n1000\ncpu 0 1 9\n1600\ncpu 0 garbage 18\n"
	if err := os.WriteFile(filepath.Join(hostDir, "1.raw"), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	acctPath := filepath.Join(work, "accounting.log")
	af, err := os.Create(acctPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.WriteAcct(af, nil); err != nil {
		t.Fatal(err)
	}
	af.Close()

	// Lenient (the default) quarantines and succeeds.
	out := filepath.Join(work, "out")
	if err := run(rawDir, acctPath, out); err != nil {
		t.Fatalf("lenient run errored on corrupt file: %v", err)
	}
	q, err := serve.LoadQuality(out)
	if err != nil || q == nil {
		t.Fatalf("quality.json: %v, %v", q, err)
	}
	if q.FilesQuarantined != 1 {
		t.Errorf("quality = %+v, want 1 quarantined file", q)
	}

	// Strict aborts with host/file context.
	err = runWorkers(rawDir, acctPath, filepath.Join(work, "out-strict"), 1,
		ingest.Options{Policy: ingest.Strict})
	if err == nil || !strings.Contains(err.Error(), "h1/1.raw") {
		t.Fatalf("strict run error = %v, want fault at h1/1.raw", err)
	}
}

// TestIngestCleansHealingLeftovers: a fresh ingest batch supersedes
// whatever self-healing state (and writer debris) the previous
// generation accumulated in the output directory — stale day shards,
// quarantined shard evidence, the quarantine log, and orphaned temp
// files from a killed writer must all be gone after the run.
func TestIngestCleansHealingLeftovers(t *testing.T) {
	work := t.TempDir()
	rawDir := filepath.Join(work, "raw")
	hostDir := filepath.Join(rawDir, "h1")
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := "$tacc_stats 2.0\n!cpu user,E idle,E\n1000\ncpu 0 1 9\n1600\ncpu 0 5 18\n"
	if err := os.WriteFile(filepath.Join(hostDir, "1.raw"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	acctPath := filepath.Join(work, "accounting.log")
	af, err := os.Create(acctPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.WriteAcct(af, nil); err != nil {
		t.Fatal(err)
	}
	af.Close()

	out := filepath.Join(work, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	leftovers := []string{
		store.ShardFileName(12345),                         // stale day from a dead generation
		store.QuarantinedShardFile(12345),                  // quarantined evidence
		store.QuarantineFile,                               // its custody log
		".jobs.jsonl.tmp1234567", ".shard-3.supremm.tmp88", // killed-writer debris
	}
	for _, name := range leftovers {
		if err := os.WriteFile(filepath.Join(out, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := run(rawDir, acctPath, out); err != nil {
		t.Fatal(err)
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(out, name)); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived the batch (stat err %v)", name, err)
		}
	}
	assertNoTempFiles(t, out)
}

func TestIngestCommandErrors(t *testing.T) {
	if err := run("/nonexistent", "/nonexistent", t.TempDir()); err == nil {
		t.Error("missing inputs should error")
	}
	// Valid raw dir but bad accounting file.
	bad := filepath.Join(t.TempDir(), "acct")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.TempDir(), bad, t.TempDir()); err == nil {
		t.Error("corrupt accounting should error")
	}
}
