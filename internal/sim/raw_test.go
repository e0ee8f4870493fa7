package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/store"
)

// rawConfig is a tiny raw-mode run: 8 nodes, 2 days.
func rawConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := DefaultConfig(cluster.RangerConfig().Scaled(8), seed)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	// Deepen the queue so the tiny cluster stays packed: at this scale a
	// 1.15x offered load leaves long idle gaps from Poisson sparsity.
	cfg.Gen.UtilizationTarget = 2.5
	cfg.RawDir = t.TempDir()
	return cfg
}

func TestRawModeWritesPerNodePerDayFiles(t *testing.T) {
	cfg := rawConfig(t, 13)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := os.ReadDir(cfg.RawDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 8 {
		t.Fatalf("host dirs = %d, want 8", len(hosts))
	}
	days, err := os.ReadDir(filepath.Join(cfg.RawDir, hosts[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(days) < 2 {
		t.Errorf("day files = %d, want >= 2 for a 2-day run", len(days))
	}
	if res.MonitorBytes == 0 || res.MonitorSamples == 0 {
		t.Error("monitor accounting empty in raw mode")
	}
	// §3: raw volume ~0.5 MB per node per day (scaled: our node has the
	// same 16 cores; accept a broad band around the paper's figure).
	perNodeDay := float64(res.MonitorBytes) / 8 / 2
	if perNodeDay < 100<<10 || perNodeDay > 3<<20 {
		t.Errorf("raw volume = %.0f bytes/node/day, want ~0.5 MB", perNodeDay)
	}
}

func TestRawIngestMatchesFastPath(t *testing.T) {
	// The full-fidelity path (raw text files -> parse -> delta -> join)
	// must reproduce the direct in-memory records. This is the pipeline
	// integrity check: Fig 1's ETL produces what the simulator knows.
	cfg := rawConfig(t, 17)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Store.Len() != res.Store.Len() {
		t.Fatalf("raw store has %d records, fast path %d", raw.Store.Len(), res.Store.Len())
	}
	// Compare per-job metrics. The raw path quantizes usage into uint64
	// counters and attributes by interval midpoint, so tolerate a few
	// percent of relative error on jobs with enough samples.
	byID := make(map[int64]store.JobRecord)
	for i := 0; i < res.Store.Len(); i++ {
		r := res.Store.Record(i)
		byID[r.JobID] = r
	}
	checked := 0
	for i := 0; i < raw.Store.Len(); i++ {
		rr := raw.Store.Record(i)
		fr, ok := byID[rr.JobID]
		if !ok {
			t.Fatalf("raw job %d missing from fast path", rr.JobID)
		}
		if rr.User != fr.User || rr.App != fr.App || rr.Nodes != fr.Nodes {
			t.Errorf("job %d identity mismatch: raw %+v fast %+v", rr.JobID, rr, fr)
		}
		if fr.Samples < 12 || rr.Samples < 12 {
			continue // short jobs suffer boundary quantization
		}
		checked++
		relCheck(t, rr.JobID, "cpu_idle", rr.CPUIdleFrac, fr.CPUIdleFrac, 0.15, 0.02)
		relCheck(t, rr.JobID, "flops", rr.FlopsGF, fr.FlopsGF, 0.15, 0.05)
		relCheck(t, rr.JobID, "mem", rr.MemUsedGB, fr.MemUsedGB, 0.15, 0.1)
		relCheck(t, rr.JobID, "scratch", rr.ScratchWriteMB, fr.ScratchWriteMB, 0.35, 0.1)
		relCheck(t, rr.JobID, "ib_tx", rr.IBTxMB, fr.IBTxMB, 0.15, 0.05)
	}
	if checked < 10 {
		t.Errorf("only %d jobs compared; run too small", checked)
	}
}

// relCheck asserts |a-b| <= rel*|b| + abs.
func relCheck(t *testing.T, job int64, what string, a, b, rel, abs float64) {
	t.Helper()
	if math.Abs(a-b) > rel*math.Abs(b)+abs {
		t.Errorf("job %d %s: raw %v vs fast %v", job, what, a, b)
	}
}

func TestRawIngestSystemSeries(t *testing.T) {
	cfg := rawConfig(t, 19)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Series) == 0 {
		t.Fatal("no system series from raw path")
	}
	// Active node counts should match the fast-path series where the
	// sample times line up (all nodes up in this config).
	for _, s := range raw.Series {
		if s.ActiveNodes != 8 {
			t.Fatalf("raw active nodes = %d, want 8", s.ActiveNodes)
		}
		if s.BusyNodes > s.ActiveNodes {
			t.Fatalf("busy %d > active %d", s.BusyNodes, s.ActiveNodes)
		}
	}
	// Cluster FLOPS from raw deltas should track fast path to ~15%.
	fastMean := store.SeriesSummary(res.Series, "total_tflops").Mean
	rawMean := store.SeriesSummary(raw.Series, "total_tflops").Mean
	if math.Abs(fastMean-rawMean) > 0.2*fastMean {
		t.Errorf("series flops: raw %v vs fast %v", rawMean, fastMean)
	}
}

func TestRawIngestUnattributedIsSmall(t *testing.T) {
	cfg := rawConfig(t, 23)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	// Idle intervals are legitimately unattributed, but on a loaded
	// cluster they should be well under half of all intervals.
	totalIntervals := 8 * len(res.Series)
	if raw.Unattributed > totalIntervals/2 {
		t.Errorf("unattributed = %d of ~%d intervals", raw.Unattributed, totalIntervals)
	}
}

func TestRawPipelineLonestar4(t *testing.T) {
	// The Intel PMC path and NFS counters must flow through the raw
	// pipeline too (the other raw tests run the AMD/Ranger path).
	cfg := DefaultConfig(cluster.Lonestar4Config().Scaled(6), 43)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.UtilizationTarget = 2.5
	cfg.RawDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Store.Len() != res.Store.Len() {
		t.Fatalf("raw %d vs fast %d records", raw.Store.Len(), res.Store.Len())
	}
	// FLOPS came from the intel_pmc block.
	agg := raw.Store.AsSet().Aggregate(store.MetricFlops, store.Filter{MinSamples: 6})
	if !(agg.Mean > 0) {
		t.Errorf("LS4 raw flops = %v, Intel PMC path broken", agg.Mean)
	}
	// The raw files carry the NFS schema.
	hosts, err := os.ReadDir(cfg.RawDir)
	if err != nil || len(hosts) == 0 {
		t.Fatal("no raw hosts")
	}
	days, err := os.ReadDir(filepath.Join(cfg.RawDir, hosts[0].Name()))
	if err != nil || len(days) == 0 {
		t.Fatal("no raw files")
	}
	data, err := os.ReadFile(filepath.Join(cfg.RawDir, hosts[0].Name(), days[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("!nfs ")) {
		t.Error("LS4 raw file missing nfs schema")
	}
	if !bytes.Contains(data, []byte("!intel_pmc ")) {
		t.Error("LS4 raw file missing intel_pmc schema")
	}
}
