package taccstats

import (
	"bytes"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
)

// benchFile renders a Ranger-shaped raw file with the given number of
// records, one full sample of every stat type each.
func benchFile(tb testing.TB, records int) []byte {
	tb.Helper()
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, "c101-301.ranger")
	snap.Time = 1307000600
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < records; i++ {
		snap.Time += 600
		for c := 0; c < 16; c++ {
			dev := snap.Type(procfs.TypeCPU).Devices()[c]
			snap.Add(procfs.TypeCPU, dev, "user", 54000)
			snap.Add(procfs.TypeCPU, dev, "idle", 6000)
			snap.Add(procfs.TypeAMDPMC, dev, "FLOPS", 600e9/16)
		}
		snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", 1200e6)
		snap.Add(procfs.TypeLlite, "scratch", "write_bytes", 600e6)
		if err := w.WriteRecord(snap, ""); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// BenchmarkParseStream measures the zero-allocation streaming fast path
// over the same file; the delta to BenchmarkParseMaterialize is the
// cost of materializing nested maps.
func BenchmarkParseStream(b *testing.B) {
	data := benchFile(b, 144)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_, err := ParseStream(bytes.NewReader(data), func(rec *Record) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != 144 {
			b.Fatal("bad parse")
		}
	}
}

// BenchmarkParseMaterialize measures the same parse with every record
// materialized, over a 144-record (one day at 10-minute cadence) Ranger
// node file.
func BenchmarkParseMaterialize(b *testing.B) {
	data := benchFile(b, 144)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var recs []Record
		_, err := ParseStream(bytes.NewReader(data), func(rec *Record) error {
			recs = append(recs, rec.Materialize())
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 144 {
			b.Fatal("bad parse")
		}
	}
}
