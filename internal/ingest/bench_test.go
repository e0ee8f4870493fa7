package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// benchTree writes a raw tree of hosts×samples at 600 s cadence with a
// single job spanning the whole window, mimicking one Ranger day file
// per host. Returns the accounting records that attribute every
// interval.
func benchTree(tb testing.TB, dir string, hosts, samples int) []sched.AcctRecord {
	tb.Helper()
	start := int64(1000)
	end := start + int64(samples)*600
	names := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		names[h] = benchHostName(h)
		writeBenchHost(tb, dir, names[h], start, samples)
	}
	return []sched.AcctRecord{{
		Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 7,
		Account: "Physics", Submit: start - 100, Start: start, End: end,
		Status: workload.Completed, Slots: 16 * hosts, NodeList: names,
	}}
}

func benchHostName(h int) string {
	return string([]byte{'c', byte('0' + h/10), byte('0' + h%10), '.', 'r'})
}

func writeBenchHost(tb testing.TB, dir, host string, start int64, samples int) {
	tb.Helper()
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, host)
	snap.Time = start
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	f, err := os.Create(filepath.Join(hostDir, "0.raw"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := writeBenchRecords(f, snap, samples); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

func writeBenchRecords(f *os.File, snap *procfs.Snapshot, samples int) error {
	w := taccstats.NewWriter(f)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		return err
	}
	if err := w.WriteRecord(snap, "begin 7"); err != nil {
		return err
	}
	for i := 0; i < samples; i++ {
		snap.Time += 600
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
		mark := ""
		if i == samples-1 {
			mark = "end 7"
		}
		if err := w.WriteRecord(snap, mark); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkIngestRaw measures the raw ETL end to end at one worker:
// 4 hosts, one day file each, 144 samples (10-minute cadence).
func BenchmarkIngestRaw(b *testing.B) {
	dir := b.TempDir()
	acct := benchTree(b, dir, 4, 144)
	recs := int64(4 * 144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := IngestRaw(dir, acct)
		if err != nil {
			b.Fatal(err)
		}
		if res.Store.Len() != 1 {
			b.Fatal("bad result")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*recs), "ns/record")
}

// BenchmarkIngestRawParallel is the same tree at four workers. On a
// single-CPU box more workers cannot beat one — they only add
// coordination — so EXPERIMENTS.md records the measured break-even
// rather than this benchmark asserting one.
func BenchmarkIngestRawParallel(b *testing.B) {
	dir := b.TempDir()
	acct := benchTree(b, dir, 4, 144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := IngestRawParallel(dir, acct, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Store.Len() != 1 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkIngestRawLarge compares one worker with eight on a 24-host,
// 2-day tree (13824 records) — enough per-host work that worker-pool
// overhead amortizes on multi-core machines. The pair under one tree
// makes the crossover directly readable from bench-ingest output.
func BenchmarkIngestRawLarge(b *testing.B) {
	dir := b.TempDir()
	const hosts, samples = 24, 288
	acct := benchTree(b, dir, hosts, samples)
	recs := int64(hosts * samples)

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := IngestRaw(dir, acct)
			if err != nil {
				b.Fatal(err)
			}
			if res.Store.Len() != 1 {
				b.Fatal("bad result")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*recs), "ns/record")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := IngestRawParallel(dir, acct, 8)
			if err != nil {
				b.Fatal(err)
			}
			if res.Store.Len() != 1 {
				b.Fatal("bad result")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*recs), "ns/record")
	})
}
