package taccstats

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
)

// memFiles is an in-memory RotateFunc capturing one buffer per day.
type memFiles struct {
	days    []int
	buffers map[int]*bytes.Buffer
}

func newMemFiles() *memFiles {
	return &memFiles{buffers: make(map[int]*bytes.Buffer)}
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func (m *memFiles) rotate(day int) (io.WriteCloser, error) {
	buf := &bytes.Buffer{}
	m.buffers[day] = buf
	m.days = append(m.days, day)
	return nopCloser{buf}, nil
}

func newTestMonitor(t *testing.T) (*Monitor, *procfs.Snapshot, *memFiles) {
	t.Helper()
	cfg := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cfg, "c000-000.ranger")
	snap.Time = 0
	files := newMemFiles()
	m := NewMonitor(snap, cfg.Arch, files.rotate)
	return m, snap, files
}

func TestMonitorJobLifecycle(t *testing.T) {
	m, snap, files := newTestMonitor(t)
	snap.Time = 1000

	if err := m.BeginJob(77); err != nil {
		t.Fatal(err)
	}
	snap.Time = 1600
	snap.Add(procfs.TypeCPU, "0", "user", 550)
	if err := m.Sample(); err != nil {
		t.Fatal(err)
	}
	snap.Time = 2200
	if err := m.EndJob(77); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := parseFile(bytes.NewReader(files.buffers[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(f.Records))
	}
	if f.Records[0].Mark != "begin" || f.Records[0].JobID != 77 {
		t.Errorf("begin mark: %+v", f.Records[0])
	}
	if f.Records[2].Mark != "end" || f.Records[2].JobID != 77 {
		t.Errorf("end mark: %+v", f.Records[2])
	}
	if m.Samples() != 3 {
		t.Errorf("samples = %d", m.Samples())
	}
}

func TestPMCReprogramOnlyAtJobBegin(t *testing.T) {
	m, snap, files := newTestMonitor(t)
	snap.Time = 100
	snap.Add(procfs.TypeAMDPMC, "0", "FLOPS", 999) // stale user counts

	if err := m.BeginJob(1); err != nil { // reprogram zeroes PMCs
		t.Fatal(err)
	}
	snap.Time = 700
	snap.Add(procfs.TypeAMDPMC, "0", "FLOPS", 500)
	if err := m.Sample(); err != nil { // periodic read must not reset
		t.Fatal(err)
	}
	snap.Time = 1300
	snap.Add(procfs.TypeAMDPMC, "0", "FLOPS", 500)
	if err := m.Sample(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	f, err := parseFile(bytes.NewReader(files.buffers[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) uint64 {
		v, _ := f.Records[i].Get(f.Schemas, procfs.TypeAMDPMC, "0", "FLOPS")
		return v
	}
	if get(0) != 0 {
		t.Errorf("begin sample FLOPS = %d, want 0 after reprogram", get(0))
	}
	if get(1) != 500 || get(2) != 1000 {
		t.Errorf("periodic FLOPS = %d, %d; want 500, 1000 (no reset)", get(1), get(2))
	}
}

func TestDailyRotation(t *testing.T) {
	m, snap, files := newTestMonitor(t)
	snap.Time = 86000 // near end of day 0
	if err := m.Sample(); err != nil {
		t.Fatal(err)
	}
	snap.Time = 86600 // day 1
	if err := m.Sample(); err != nil {
		t.Fatal(err)
	}
	snap.Time = 90000 // still day 1
	if err := m.Sample(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if len(files.days) != 2 || files.days[0] != 0 || files.days[1] != 1 {
		t.Fatalf("rotation days = %v, want [0 1]", files.days)
	}
	// Each file is independently parseable (self-describing headers).
	for day, buf := range files.buffers {
		f, err := parseFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if f.Hostname != "c000-000.ranger" {
			t.Errorf("day %d hostname = %q", day, f.Hostname)
		}
	}
	// TotalBytes covers both files.
	want := int64(files.buffers[0].Len() + files.buffers[1].Len())
	if m.TotalBytes() != want {
		t.Errorf("TotalBytes = %d, want %d", m.TotalBytes(), want)
	}
}

func TestRotateErrorPropagates(t *testing.T) {
	cfg := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cfg, "h")
	boom := errors.New("disk full")
	m := NewMonitor(snap, cfg.Arch, func(day int) (io.WriteCloser, error) {
		return nil, boom
	})
	if err := m.Sample(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped disk full", err)
	}
}

func TestIntelPMCReprogram(t *testing.T) {
	cfg := cluster.Lonestar4Config()
	snap := procfs.NewNodeSnapshot(cfg, "h")
	files := newMemFiles()
	m := NewMonitor(snap, cfg.Arch, files.rotate)
	snap.Add(procfs.TypeIntelPMC, "3", "L1D_HITS", 12345)
	if err := m.BeginJob(9); err != nil {
		t.Fatal(err)
	}
	if got := snap.Get(procfs.TypeIntelPMC, "3", "L1D_HITS"); got != 0 {
		t.Errorf("Intel PMC not reprogrammed: %d", got)
	}
	m.Close()
}
