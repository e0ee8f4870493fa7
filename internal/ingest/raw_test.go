package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// IngestRaw and IngestRawParallel spell the strict-policy calls the
// tests in this package make: with the default pool of one, and with a
// given pool size.
func IngestRaw(dir string, acct []sched.AcctRecord) (*RawResult, error) {
	return IngestRawOpts(dir, acct, Options{Policy: Strict})
}

func IngestRawParallel(dir string, acct []sched.AcctRecord, workers int) (*RawResult, error) {
	return IngestRawOpts(dir, acct, Options{Policy: Strict, Workers: workers})
}

// writeRawHost writes a hand-built raw file tree for one host: a job
// running from t=1000 to t=2800 with three samples, with known counter
// rates.
func writeRawHost(t *testing.T, dir, host string) {
	t.Helper()
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, host)
	snap.Time = 1000

	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Create(filepath.Join(hostDir, "0.raw"))
	if err != nil {
		t.Fatal(err)
	}
	w := taccstats.NewWriter(f2)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	// Sample at t=1000 (job begin), 1600, 2200, 2800 (job end).
	write := func(mark string) {
		if err := w.WriteRecord(snap, mark); err != nil {
			t.Fatal(err)
		}
	}
	write("begin 7")
	for i := 0; i < 3; i++ {
		snap.Time += 600
		// 16 cores at 90% user / 10% idle; 600 GFLOP per interval;
		// 600 MB scratch writes; 1.2 GB IB tx; constant 8 GB memory.
		for c := 0; c < 16; c++ {
			dev := snap.Type(procfs.TypeCPU).Devices()[c]
			snap.Add(procfs.TypeCPU, dev, "user", 54000)
			snap.Add(procfs.TypeCPU, dev, "idle", 6000)
			snap.Add(procfs.TypeAMDPMC, dev, "FLOPS", 600e9/16)
		}
		for s := 0; s < 4; s++ {
			dev := snap.Type(procfs.TypeMem).Devices()[s]
			snap.Set(procfs.TypeMem, dev, "MemUsed", 8*1024*1024/4)
		}
		snap.Add(procfs.TypeLlite, "scratch", "write_bytes", 600e6)
		snap.Add(procfs.TypeLlite, "work", "write_bytes", 60e6)
		snap.Add(procfs.TypeLlite, "scratch", "read_bytes", 120e6)
		snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", 1200e6)
		snap.Add(procfs.TypeIB, "mlx4_0.1", "rx_bytes", 1100e6)
		snap.Add(procfs.TypeLnet, "-", "tx_bytes", 240e6)
		if i == 2 {
			write("end 7")
		} else {
			write("")
		}
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
}

func acctForHost(host string) []sched.AcctRecord {
	return []sched.AcctRecord{{
		Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 7,
		Account: "Physics", Submit: 900, Start: 1000, End: 2800,
		Status: workload.Completed, Slots: 16, NodeList: []string{host},
	}}
}

func TestIngestRawHandBuiltFile(t *testing.T) {
	dir := t.TempDir()
	writeRawHost(t, dir, "c000-000.ranger")
	res, err := IngestRaw(dir, acctForHost("c000-000.ranger"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 1 {
		t.Fatalf("records = %d", res.Store.Len())
	}
	rec := res.Store.Record(0)
	if rec.JobID != 7 || rec.User != "alice" || rec.App != "namd" {
		t.Errorf("identity: %+v", rec)
	}
	if rec.Samples != 3 {
		t.Errorf("samples = %d, want 3", rec.Samples)
	}
	// CPU split 90/10.
	if rec.CPUUserFrac < 0.89 || rec.CPUUserFrac > 0.91 {
		t.Errorf("user frac = %v", rec.CPUUserFrac)
	}
	if rec.CPUIdleFrac < 0.09 || rec.CPUIdleFrac > 0.11 {
		t.Errorf("idle frac = %v", rec.CPUIdleFrac)
	}
	// 600 GFLOP / 600 s = 1 GF/s.
	if rec.FlopsGF < 0.99 || rec.FlopsGF > 1.01 {
		t.Errorf("flops = %v GF", rec.FlopsGF)
	}
	// 600 MB / 600 s = 1 MB/s scratch, 0.1 MB/s work, 0.2 read.
	if rec.ScratchWriteMB < 0.99 || rec.ScratchWriteMB > 1.01 {
		t.Errorf("scratch = %v", rec.ScratchWriteMB)
	}
	if rec.WorkWriteMB < 0.099 || rec.WorkWriteMB > 0.101 {
		t.Errorf("work = %v", rec.WorkWriteMB)
	}
	if rec.ReadMB < 0.199 || rec.ReadMB > 0.201 {
		t.Errorf("read = %v", rec.ReadMB)
	}
	// IB: 2 MB/s tx.
	if rec.IBTxMB < 1.99 || rec.IBTxMB > 2.01 {
		t.Errorf("ib tx = %v", rec.IBTxMB)
	}
	// Memory: constant 8 GB, so mean == max == 8.
	if rec.MemUsedGB < 7.99 || rec.MemUsedGB > 8.01 {
		t.Errorf("mem = %v", rec.MemUsedGB)
	}
	if rec.MemUsedMaxGB != rec.MemUsedGB {
		t.Errorf("mem max %v != mean %v for constant gauge", rec.MemUsedMaxGB, rec.MemUsedGB)
	}
	if res.Unattributed != 0 {
		t.Errorf("unattributed = %d, want 0 (job covers all intervals)", res.Unattributed)
	}
	// System series: one bucket per sample time after the first.
	if len(res.Series) != 3 {
		t.Errorf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if s.ActiveNodes != 1 || s.BusyNodes != 1 {
			t.Errorf("series counts: %+v", s)
		}
		if s.TotalTFlops < 0.0009 || s.TotalTFlops > 0.0011 {
			t.Errorf("series tflops = %v", s.TotalTFlops)
		}
	}
}

func TestIngestRawMultiHostAggregation(t *testing.T) {
	dir := t.TempDir()
	writeRawHost(t, dir, "c000-000.ranger")
	writeRawHost(t, dir, "c000-001.ranger")
	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 7,
		Account: "Physics", Submit: 900, Start: 1000, End: 2800,
		Status: workload.Completed, Slots: 32,
		NodeList: []string{"c000-000.ranger", "c000-001.ranger"},
	}}
	res, err := IngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Store.Record(0)
	// Two hosts contribute: per-node rates unchanged, samples doubled.
	if rec.Samples != 6 {
		t.Errorf("samples = %d, want 6", rec.Samples)
	}
	if rec.FlopsGF < 0.99 || rec.FlopsGF > 1.01 {
		t.Errorf("per-node flops = %v, want 1 (rates are per node)", rec.FlopsGF)
	}
	// The system series sums hosts.
	for _, s := range res.Series {
		if s.ActiveNodes != 2 {
			t.Errorf("active = %d", s.ActiveNodes)
		}
		if s.TotalTFlops < 0.0019 || s.TotalTFlops > 0.0021 {
			t.Errorf("cluster tflops = %v, want 0.002", s.TotalTFlops)
		}
	}
}

func TestIngestRawSkipsNonRawFiles(t *testing.T) {
	dir := t.TempDir()
	writeRawHost(t, dir, "c000-000.ranger")
	// Stray files that must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "c000-000.ranger", "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := IngestRaw(dir, acctForHost("c000-000.ranger"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 1 {
		t.Errorf("records = %d", res.Store.Len())
	}
}

func TestIngestRawPMCResetHandling(t *testing.T) {
	// A second job begins mid-file: the monitor reprograms (zeroes) the
	// PMCs, so the counter moves backwards. eventDelta must treat the
	// new value as the delta rather than produce a wild wraparound.
	dir := t.TempDir()
	host := "c000-000.ranger"
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, host)
	snap.Time = 1000
	f, err := os.Create(filepath.Join(hostDir, "0.raw"))
	if err != nil {
		t.Fatal(err)
	}
	w := taccstats.NewWriter(f)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	rec := func(mark string) {
		if err := w.WriteRecord(snap, mark); err != nil {
			t.Fatal(err)
		}
	}
	// Job 1: accumulates big PMC counts.
	rec("begin 1")
	snap.Time = 1600
	snap.Add(procfs.TypeAMDPMC, "0", "FLOPS", 1e12)
	addCPU(snap, 60000)
	rec("end 1")
	// Reprogram for job 2: PMCs zeroed, then modest counts.
	for c := 0; c < 16; c++ {
		dev := snap.Type(procfs.TypeAMDPMC).Devices()[c]
		vals := snap.Type(procfs.TypeAMDPMC).Values(dev)
		for i := range vals {
			vals[i] = 0
		}
	}
	snap.Time = 1600
	rec("begin 2")
	snap.Time = 2200
	snap.Add(procfs.TypeAMDPMC, "0", "FLOPS", 6e11)
	addCPU(snap, 60000)
	rec("end 2")
	f.Close()

	acct := []sched.AcctRecord{
		{Cluster: "ranger", Owner: "a", JobName: "x", JobID: 1, Account: "P",
			Submit: 900, Start: 1000, End: 1600, Status: workload.Completed,
			Slots: 16, NodeList: []string{host}},
		{Cluster: "ranger", Owner: "b", JobName: "y", JobID: 2, Account: "P",
			Submit: 900, Start: 1601, End: 2200, Status: workload.Completed,
			Slots: 16, NodeList: []string{host}},
	}
	res, err := IngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	var job2 bool
	for i := 0; i < res.Store.Len(); i++ {
		r := res.Store.Record(i)
		if r.JobID == 2 && r.Samples > 0 {
			job2 = true
			// 6e11 flops over 600 s = 1 GF/s; a wraparound bug would
			// produce ~3e7 GF/s.
			if r.FlopsGF < 0.9 || r.FlopsGF > 1.1 {
				t.Errorf("job 2 flops = %v GF, reset handling broken", r.FlopsGF)
			}
		}
	}
	if !job2 {
		t.Fatal("job 2 not ingested")
	}
}

func TestIngestRawCounterWraparound(t *testing.T) {
	// A long-lived 64-bit event counter (here IB tx_bytes) wraps past
	// 2^64 mid-job. The raw file then carries a sample whose value is
	// numerically below its predecessor; eventDelta must fold it with
	// its reset semantics (the post-wrap value is the delta) instead of
	// producing an astronomical ~1.8e19-byte interval.
	dir := t.TempDir()
	host := "c000-000.ranger"
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, host)
	snap.Time = 1000
	// Park the counter 600 MB below the wrap point, as a node up for
	// months would be.
	snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", ^uint64(0)-600e6+1)
	f, err := os.Create(filepath.Join(hostDir, "0.raw"))
	if err != nil {
		t.Fatal(err)
	}
	w := taccstats.NewWriter(f)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	write := func(mark string) {
		if err := w.WriteRecord(snap, mark); err != nil {
			t.Fatal(err)
		}
	}
	write("begin 7")
	for i := 0; i < 3; i++ {
		snap.Time += 600
		addCPU(snap, 60000)
		// Interval 1 crosses 2^64: the stored value wraps to exactly
		// 600e6. Intervals 2 and 3 advance normally by 1200e6.
		snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", 1200e6)
		if i == 2 {
			write("end 7")
		} else {
			write("")
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := IngestRaw(dir, acctForHost(host))
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 1 {
		t.Fatalf("records = %d", res.Store.Len())
	}
	rec := res.Store.Record(0)
	if rec.Samples != 3 {
		t.Fatalf("samples = %d, want 3", rec.Samples)
	}
	// Reset semantics on the wrapped interval yield 600e6 bytes (the
	// post-wrap value); the other two intervals are plain 1200e6 deltas.
	// Time-weighted tx rate: (600e6+1200e6+1200e6)/1800 s = 5/3 MB/s.
	want := (600e6 + 1200e6 + 1200e6) / 1800.0 / 1e6
	if rec.IBTxMB < want-0.01 || rec.IBTxMB > want+0.01 {
		t.Errorf("ib tx = %v MB/s, want %.3f (wraparound mishandled)", rec.IBTxMB, want)
	}
	for _, s := range res.Series {
		if s.IBTxMBps < 0 || s.IBTxMBps > 2.01 {
			t.Errorf("series ib tx = %v MB/s, wraparound leaked into the system series", s.IBTxMBps)
		}
	}
}

func addCPU(snap *procfs.Snapshot, cs uint64) {
	for c := 0; c < 16; c++ {
		dev := snap.Type(procfs.TypeCPU).Devices()[c]
		snap.Add(procfs.TypeCPU, dev, "user", cs)
	}
}

// TestIngestRawParallelMatchesSequential: the pool size never changes a
// byte. One worker (hosts strictly one after another), two, and more
// workers than there are hosts produce the identical result.
func TestIngestRawParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	hosts := []string{"c000-000.ranger", "c000-001.ranger", "c000-002.ranger", "c000-003.ranger"}
	for _, h := range hosts {
		writeRawHost(t, dir, h)
	}
	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 7,
		Account: "Physics", Submit: 900, Start: 1000, End: 2800,
		Status: workload.Completed, Slots: 64, NodeList: hosts,
	}}
	seq, err := IngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		par, err := IngestRawParallel(dir, acct, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireReference(t, fmt.Sprintf("workers=%d", workers), asReference(seq), par)
	}
}

func TestIngestRawParallelErrors(t *testing.T) {
	if _, err := IngestRawParallel("/nonexistent", nil, 4); err == nil {
		t.Error("missing dir should error")
	}
	dir := t.TempDir()
	host := filepath.Join(dir, "h1")
	if err := os.MkdirAll(host, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(host, "0.raw"), []byte("$tacc_stats 2.0\n100\ncpu 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IngestRawParallel(dir, nil, 4); err == nil {
		t.Error("corrupt file should error through the pool")
	}
}

func TestIngestRawIrregularTimestamps(t *testing.T) {
	// Production monitors jitter around the 10-minute cadence and emit
	// extra records at job boundaries. Intervals of varying length must
	// aggregate to correct time-weighted means.
	dir := t.TempDir()
	host := "h.irregular"
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, host)
	snap.Time = 1000
	f, err := os.Create(filepath.Join(hostDir, "0.raw"))
	if err != nil {
		t.Fatal(err)
	}
	w := taccstats.NewWriter(f)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	write := func() {
		if err := w.WriteRecord(snap, ""); err != nil {
			t.Fatal(err)
		}
	}
	write()
	// Interval 1: 300 s fully busy; interval 2: 900 s fully idle.
	// Time-weighted idle = 900/1200 = 0.75.
	advance := func(dtSec int64, busy bool) {
		snap.Time += dtSec
		for c := 0; c < 16; c++ {
			dev := snap.Type(procfs.TypeCPU).Devices()[c]
			if busy {
				snap.Add(procfs.TypeCPU, dev, "user", uint64(dtSec*100))
			} else {
				snap.Add(procfs.TypeCPU, dev, "idle", uint64(dtSec*100))
			}
		}
		write()
	}
	advance(300, true)
	advance(900, false)
	f.Close()

	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "u", JobName: "x", JobID: 1, Account: "P",
		Submit: 900, Start: 1000, End: 2200, Status: workload.Completed,
		Slots: 16, NodeList: []string{host},
	}}
	res, err := IngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Store.Record(0)
	if rec.Samples != 2 {
		t.Fatalf("samples = %d", rec.Samples)
	}
	if rec.CPUIdleFrac < 0.74 || rec.CPUIdleFrac > 0.76 {
		t.Errorf("time-weighted idle = %v, want 0.75", rec.CPUIdleFrac)
	}
}
