package store

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func sampleSeries() []SystemSample {
	return []SystemSample{
		{Time: 100, ActiveNodes: 10, BusyNodes: 8, QueuedJobs: 3, RunningJobs: 5,
			TotalTFlops: 1.5, MemPerNode: 8, CPUUserFrac: 0.8, CPUSysFrac: 0.05,
			CPUIdleFrac: 0.15, ScratchMBps: 100, WorkMBps: 10, ShareMBps: 1,
			IBTxMBps: 500, LnetTxMBps: 120},
		{Time: 700, ActiveNodes: 10, BusyNodes: 9, QueuedJobs: 1, RunningJobs: 6,
			TotalTFlops: 2.5, MemPerNode: 9, CPUUserFrac: 0.85, CPUSysFrac: 0.05,
			CPUIdleFrac: 0.10, ScratchMBps: 80, WorkMBps: 12, ShareMBps: 2,
			IBTxMBps: 600, LnetTxMBps: 100},
	}
}

func TestSeriesMetricCoversAllNames(t *testing.T) {
	s := sampleSeries()[0]
	cases := map[string]float64{
		"active_nodes": 10, "busy_nodes": 8, "cpu_flops": 1.5,
		"total_tflops": 1.5, "mem_used": 8, "mem_per_node_gb": 8,
		"cpu_idle": 0.15, "cpu_user": 0.8, "cpu_sys": 0.05,
		"io_scratch_write": 100, "io_work_write": 10, "io_share_write": 1,
		"net_ib_tx": 500, "net_lnet_tx": 120,
	}
	for name, want := range cases {
		got, ok := s.SeriesMetric(name)
		if !ok || got != want {
			t.Errorf("SeriesMetric(%q) = %v,%v want %v", name, got, ok, want)
		}
	}
	if _, ok := s.SeriesMetric("nope"); ok {
		t.Error("unknown metric should not be ok")
	}
}

func TestSeriesColumn(t *testing.T) {
	col := SeriesColumn(sampleSeries(), "total_tflops")
	if len(col) != 2 || col[0] != 1.5 || col[1] != 2.5 {
		t.Errorf("column = %v", col)
	}
	if SeriesColumn(sampleSeries(), "bogus") != nil {
		t.Error("unknown column should be nil")
	}
	if SeriesColumn(nil, "total_tflops") != nil {
		t.Error("empty series should be nil")
	}
}

func TestSaveLoadSeries(t *testing.T) {
	in := sampleSeries()
	var buf bytes.Buffer
	if err := SaveSeries(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("loaded %d samples", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("sample %d differs:\n in  %+v\n out %+v", i, in[i], out[i])
		}
	}
	if _, err := LoadSeries(strings.NewReader("{broken")); err == nil {
		t.Error("corrupt series should error")
	}
	empty, err := LoadSeries(strings.NewReader(""))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty stream: %v, %v", empty, err)
	}
}

// BenchmarkLoadSeries decodes 120 days of 10-minute samples (17 280
// lines, the benchmark history's series.jsonl), every line on the fast
// path (make bench-store).
func BenchmarkLoadSeries(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]SystemSample, 120*144)
	for i := range samples {
		busy := rng.Intn(128)
		samples[i] = SystemSample{Time: 1_600_000_000 + int64(i)*600, ActiveNodes: 128, BusyNodes: busy,
			QueuedJobs: rng.Intn(40), RunningJobs: rng.Intn(60), TotalTFlops: rng.Float64() * 3,
			MemPerNode: rng.Float64() * 16, CPUUserFrac: rng.Float64(), CPUSysFrac: rng.Float64() / 20,
			CPUIdleFrac: rng.Float64(), ScratchMBps: rng.Float64() * 900, WorkMBps: rng.Float64() * 90,
			ShareMBps: rng.Float64() * 9, IBTxMBps: rng.Float64() * 4000, LnetTxMBps: rng.Float64() * 700}
	}
	var buf bytes.Buffer
	if err := SaveSeries(&buf, samples); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := LoadSeries(bytes.NewReader(buf.Bytes())); err != nil || len(got) != len(samples) {
			b.Fatal(len(got), err)
		}
	}
}
