package main

import (
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/serve"
	"supremm/internal/sim"
	"supremm/internal/store"
)

// writeData materializes a small simulated dataset in dir, in the form
// cmd/simulate leaves it: day shards under a manifest, and the series.
func writeData(t *testing.T, dir string) {
	t.Helper()
	cc := cluster.RangerConfig().Scaled(12)
	cfg := sim.DefaultConfig(cc, 31)
	cfg.DurationMin = 5 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteShardDir(dir, res.Store); err != nil {
		t.Fatal(err)
	}
	if err := store.AtomicWriteFile(dir, "series.jsonl", func(f *os.File) error {
		return store.SaveSeries(f, res.Series)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRealmInfersShape(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	r, err := serve.LoadRealm(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cluster != "ranger" {
		t.Errorf("cluster = %q", r.Cluster)
	}
	if r.CoresPerNode != 16 || r.MemPerNodeGB != 32 {
		t.Errorf("shape = %d cores / %v GB", r.CoresPerNode, r.MemPerNodeGB)
	}
	// Node count inferred from the series peak, so the peak-TF scale is
	// the scaled machine's, not full Ranger's.
	full := cluster.RangerConfig().PeakTFlops()
	if r.PeakTFlops >= full/2 {
		t.Errorf("peak = %v TF, want scaled-down", r.PeakTFlops)
	}
}

func TestAllReports(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	for _, rep := range []string{"users", "apps", "efficiency", "persistence", "system", "failures", "trends", "workload", "forecast"} {
		if err := run(dir, rep, 3); err != nil {
			t.Errorf("report %s: %v", rep, err)
		}
	}
	if err := run(dir, "bogus", 3); err == nil {
		t.Error("unknown report should error")
	}
	// The quality report needs quality.json from cmd/ingest.
	if err := run(dir, "quality", 3); err == nil {
		t.Error("quality without quality.json should error")
	}
	writeQuality(t, dir)
	if err := run(dir, "quality", 3); err != nil {
		t.Errorf("report quality: %v", err)
	}
	// The waits report needs the accounting log, which writeData does
	// not produce.
	if err := run(dir, "waits", 3); err == nil {
		t.Error("waits without accounting.log should error")
	}
	if err := run(t.TempDir(), "users", 3); err == nil {
		t.Error("missing data dir should error")
	}
}

// writeQuality drops a small degraded quality report next to the data.
func writeQuality(t *testing.T, dir string) {
	t.Helper()
	q := &ingest.DataQuality{
		FilesScanned: 20, FilesQuarantined: 1,
		Quarantined: []ingest.QuarantinedFile{{Host: "h1", File: "1.raw", Reason: "parse: garbled"}},
	}
	if err := store.AtomicWriteFile(dir, "quality.json", func(f *os.File) error { return ingest.WriteQuality(f, q) }); err != nil {
		t.Fatal(err)
	}
}

func TestRunSuiteCommand(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	for _, who := range []string{"user", "developer", "support", "admin", "manager", "funding"} {
		if err := runSuite(dir, who); err != nil {
			t.Errorf("suite %s: %v", who, err)
		}
	}
	// With a quality report present the suites pick it up.
	writeQuality(t, dir)
	if err := runSuite(dir, "support"); err != nil {
		t.Errorf("suite with quality report: %v", err)
	}
	// A corrupt quality report is an error, not silently ignored.
	if err := os.WriteFile(filepath.Join(dir, "quality.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSuite(dir, "support"); err == nil {
		t.Error("corrupt quality.json should error")
	}
	if err := runSuite(dir, "alien"); err == nil {
		t.Error("unknown stakeholder should error")
	}
	if err := runSuite(t.TempDir(), "user"); err == nil {
		t.Error("missing data should error")
	}
}

func TestRunQueryCommand(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	if err := runQuery(dir, "group=app metrics=cpu_idle limit=3"); err != nil {
		t.Fatal(err)
	}
	// The spec takes /api/v1/query's keys, endafter and endbefore among
	// them, and refuses what that endpoint refuses: a repeated key is an
	// error, not the last value silently winning.
	if err := runQuery(dir, "group=app endafter=1 endbefore=4000000000"); err != nil {
		t.Errorf("time-windowed query: %v", err)
	}
	for _, spec := range []string{"group=bogus", "group=app group=user", "limit=10001"} {
		if err := runQuery(dir, spec); err == nil {
			t.Errorf("query %q should error", spec)
		}
	}
	if err := runQuery(t.TempDir(), "group=app"); err == nil {
		t.Error("missing data should error")
	}
}
