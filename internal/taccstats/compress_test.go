package taccstats

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
)

func TestGzipRotateRoundTrip(t *testing.T) {
	cfg := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cfg, "gz-node")
	snap.Time = 100

	var buf bytes.Buffer
	rotate := GzipRotate(func(day int) (io.WriteCloser, error) {
		return nopCloser{&buf}, nil
	})
	m := NewMonitor(snap, cfg.Arch, rotate)
	if err := m.BeginJob(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		snap.Time += 600
		snap.Add(procfs.TypeCPU, "0", "user", 50000)
		if err := m.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The buffer holds gzip data, not plain text.
	if bytes.HasPrefix(buf.Bytes(), []byte("$tacc_stats")) {
		t.Fatal("output not compressed")
	}
	zr, err := GzipReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	f, err := parseFile(zr)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hostname != "gz-node" || len(f.Records) != 11 {
		t.Errorf("parsed %d records for %q", len(f.Records), f.Hostname)
	}
}

func TestGzipCompressionRatio(t *testing.T) {
	// The paper's 60 GB -> 20 GB monthly volume implies ~3x; our format
	// with realistic counter magnitudes should do at least that.
	cfg := cluster.RangerConfig()
	write := func(rotate RotateFunc) {
		snap := procfs.NewNodeSnapshot(cfg, "node")
		snap.Time = 1306886400
		m := NewMonitor(snap, cfg.Arch, rotate)
		for i := 0; i < 144; i++ {
			snap.Time += 600
			for c := 0; c < 16; c++ {
				dev := snap.Type(procfs.TypeCPU).Devices()[c]
				snap.Add(procfs.TypeCPU, dev, "user", 53000)
				snap.Add(procfs.TypeCPU, dev, "idle", 7000)
			}
			snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", 18_000_000_000)
			snap.Add(procfs.TypeLlite, "scratch", "write_bytes", 900_000_000)
			if err := m.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
	}
	var plain, compressed bytes.Buffer
	write(func(day int) (io.WriteCloser, error) { return nopCloser{&plain}, nil })
	write(GzipRotate(func(day int) (io.WriteCloser, error) { return nopCloser{&compressed}, nil }))
	ratio := float64(plain.Len()) / float64(compressed.Len())
	if ratio < 3 {
		t.Errorf("compression ratio = %.2f, want >= 3 (paper: 60->20 GB)", ratio)
	}
}

func TestGzipRotateInnerError(t *testing.T) {
	boom := errors.New("nope")
	rotate := GzipRotate(func(day int) (io.WriteCloser, error) { return nil, boom })
	if _, err := rotate(0); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestGzipReaderRejectsPlainText(t *testing.T) {
	if _, err := GzipReader(bytes.NewReader([]byte("$tacc_stats 2.0\n"))); err == nil {
		t.Error("plain text should not gunzip")
	}
}
