package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/sim"
	"supremm/internal/store"
)

// writeData materializes a small simulated dataset in dir, in the form
// cmd/simulate leaves it: day shards under a manifest, and the series.
// It returns the run, whose accounting log it leaves out.
func writeData(t *testing.T, dir string) *sim.Result {
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
	return res
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
		if err := run(io.Discard, dir, rep, "", "", 3); err != nil {
			t.Errorf("report %s: %v", rep, err)
		}
	}
	if err := run(io.Discard, dir, "bogus", "", "", 3); err == nil {
		t.Error("unknown report should error")
	}
	// The quality report needs quality.json from cmd/ingest.
	if err := run(io.Discard, dir, "quality", "", "", 3); err == nil {
		t.Error("quality without quality.json should error")
	}
	writeQuality(t, dir)
	if err := run(io.Discard, dir, "quality", "", "", 3); err != nil {
		t.Errorf("report quality: %v", err)
	}
	// The waits report needs the accounting log, which writeData does
	// not produce.
	if err := run(io.Discard, dir, "waits", "", "", 3); err == nil {
		t.Error("waits without accounting.log should error")
	}
	if err := run(io.Discard, t.TempDir(), "users", "", "", 3); err == nil {
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
		if err := run(io.Discard, dir, "", "", who, 0); err != nil {
			t.Errorf("suite %s: %v", who, err)
		}
	}
	// With a quality report present the suites pick it up.
	writeQuality(t, dir)
	if err := run(io.Discard, dir, "", "", "support", 0); err != nil {
		t.Errorf("suite with quality report: %v", err)
	}
	// A corrupt quality report is an error, not silently ignored.
	if err := os.WriteFile(filepath.Join(dir, "quality.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, dir, "", "", "support", 0); err == nil {
		t.Error("corrupt quality.json should error")
	}
	if err := run(io.Discard, dir, "", "", "alien", 0); err == nil {
		t.Error("unknown stakeholder should error")
	}
	if err := run(io.Discard, t.TempDir(), "", "", "user", 0); err == nil {
		t.Error("missing data should error")
	}
}

func TestRunQueryCommand(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	if err := run(io.Discard, dir, "", "group=app metrics=cpu_idle limit=3", "", 0); err != nil {
		t.Fatal(err)
	}
	// The spec takes /api/v1/query's keys, endafter and endbefore among
	// them, and refuses what that endpoint refuses: a repeated key is an
	// error, not the last value silently winning.
	if err := run(io.Discard, dir, "", "group=app endafter=1 endbefore=4000000000", "", 0); err != nil {
		t.Errorf("time-windowed query: %v", err)
	}
	for _, spec := range []string{"group=bogus", "group=app group=user", "limit=10001"} {
		if err := run(io.Discard, dir, "", spec, "", 0); err == nil {
			t.Errorf("query %q should error", spec)
		}
	}
	if err := run(io.Discard, t.TempDir(), "", "group=app", "", 0); err == nil {
		t.Error("missing data should error")
	}
}

// TestRunGolden holds every -report, every -suite and one -query to
// the committed goldens under testdata, over writeData's directory with
// its quality report and accounting log.
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	res := writeData(t, dir)
	writeQuality(t, dir)
	if err := store.AtomicWriteFile(dir, store.AccountingFile, func(f *os.File) error {
		return sched.WriteAcct(f, res.Acct)
	}); err != nil {
		t.Fatal(err)
	}
	check := func(golden, what, spec, who string) {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, dir, what, spec, who, 3); err != nil {
			t.Errorf("%s: %v", golden, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", golden, out.Bytes(), want)
		}
	}
	for _, rep := range []string{"users", "apps", "efficiency", "persistence", "system", "failures", "trends", "workload", "forecast", "waits", "quality"} {
		check("report-"+rep+".golden", rep, "", "")
	}
	for _, who := range []string{"user", "developer", "support", "admin", "manager", "funding"} {
		check("suite-"+who+".golden", "", "", who)
	}
	check("query.golden", "", "group=app metrics=cpu_idle,cpu_flops limit=5", "")
}

// TestRunFailedSuiteKeepsPrefix: a suite whose data fails part-way
// still writes the sections before the failure, then fails.
func TestRunFailedSuiteKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	s := store.New()
	// One job too short to be analyzed: the realm has no users for Fig 4.
	s.Add(store.JobRecord{JobID: 1, Cluster: "ranger", User: "u1", App: "namd", Science: "physics",
		Nodes: 1, Submit: 86400, Start: 86400, End: 86400 + 60, Status: "COMPLETED"})
	if err := store.WriteShardDir(dir, s); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, dir, "", "", "support", 0); err == nil {
		t.Error("support suite with no users should fail")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "suite-support-nousers.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout before the failure = %q, want %q", out.Bytes(), want)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink broken") }

// TestRunReportsWriteErrors: a stdout that cannot be written fails the
// command, for a report, a suite and a query alike.
func TestRunReportsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir)
	writeQuality(t, dir)
	for _, c := range []struct{ what, spec, who string }{
		{"quality", "", ""}, {"", "", "support"}, {"", "group=app", ""},
	} {
		if err := run(failWriter{}, dir, c.what, c.spec, c.who, 3); err == nil {
			t.Errorf("%+v: a failing writer should fail the run", c)
		}
	}
}
