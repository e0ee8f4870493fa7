package taccstats

import (
	"bytes"
	"math/rand"
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

// shuffleRecords returns data with the data lines of each record in a
// seeded random order: every line misses the predicted slot.
func shuffleRecords(data []byte, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && len(lines[j]) > 0 && !(lines[j][0] >= '0' && lines[j][0] <= '9') &&
			lines[j][0] != '$' && lines[j][0] != '!' {
			j++
		}
		run := lines[i:j]
		rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
		i = j + 1
	}
	return bytes.Join(lines, nil)
}

// BenchmarkParseStream measures the zero-allocation streaming fast path
// over a 144-record (one day at 10-minute cadence) Ranger node file, as
// written (every line on its predicted slot) and with each record's
// lines shuffled (every line looked up).
func BenchmarkParseStream(b *testing.B) {
	ordered := benchFile(b, 144)
	for _, c := range []struct {
		name string
		data []byte
	}{{"ordered", ordered}, {"shuffled", shuffleRecords(ordered, 1)}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				_, err := ParseStream(bytes.NewReader(c.data), func(rec *Record) error {
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
		})
	}
}
