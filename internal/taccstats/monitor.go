package taccstats

import (
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"

	"supremm/internal/procfs"
)

// RotateFunc supplies the output sink for a given day index (raw files
// are per node per day on the deployed systems). Returning an error
// aborts the sample that triggered rotation.
type RotateFunc func(day int) (io.WriteCloser, error)

// dayFileExt ends every day file of a raw archive.
const dayFileExt = ".raw"

// DayFileName names the file of a raw archive's host directory that
// holds the given day (unix seconds / 86400): "15126.raw".
func DayFileName(day int) string { return strconv.Itoa(day) + dayFileExt }

// DayFiles returns the names of the day files among a host directory's
// entries, in day order ("2.raw" before "10.raw"); a day file whose
// name carries no day number sorts last.
func DayFiles(entries []fs.DirEntry) []string {
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), dayFileExt) {
			names = append(names, e.Name())
		}
	}
	dayOf := func(name string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(name, dayFileExt))
		if err != nil {
			return 1 << 30
		}
		return n
	}
	sort.Slice(names, func(i, j int) bool { return dayOf(names[i]) < dayOf(names[j]) })
	return names
}

// Monitor is the per-node TACC_Stats agent. It samples the node's
// synthetic /proc snapshot at job begin, periodically (every ten minutes
// in the deployed configuration), and at job end; tags records with job
// marks; reprograms the hardware performance counters only at job begin
// (periodic samples read without reprogramming, §3); and rotates output
// daily.
type Monitor struct {
	snap   *procfs.Snapshot
	rotate RotateFunc

	cur    io.WriteCloser
	w      *Writer
	curDay int

	totalBytes int64
	samples    int64
}

// NewMonitor creates a monitor over a node snapshot; the snapshot's
// Arch names the processor in each file header and picks the PMC block
// that job begin reprograms.
func NewMonitor(snap *procfs.Snapshot, rotate RotateFunc) *Monitor {
	return &Monitor{snap: snap, rotate: rotate, curDay: -1}
}

// TotalBytes reports raw bytes emitted over the monitor's lifetime,
// including already-rotated files.
func (m *Monitor) TotalBytes() int64 {
	b := m.totalBytes
	if m.w != nil {
		b += m.w.BytesWritten()
	}
	return b
}

// Samples reports how many records have been written.
func (m *Monitor) Samples() int64 { return m.samples }

// ensureFile rotates to the file for the snapshot's current day,
// writing the header block into each new file so every raw file is
// self-describing on its own.
func (m *Monitor) ensureFile() error {
	day := int(m.snap.Time / 86400)
	if m.cur != nil && day == m.curDay {
		return nil
	}
	if err := m.closeCurrent(); err != nil {
		return err
	}
	wc, err := m.rotate(day)
	if err != nil {
		return fmt.Errorf("taccstats: rotate day %d: %w", day, err)
	}
	m.cur = wc
	m.w = NewWriter(wc)
	m.curDay = day
	return m.w.WriteHeader(m.snap, m.snap.Arch.String())
}

func (m *Monitor) closeCurrent() error {
	if m.cur == nil {
		return nil
	}
	m.totalBytes += m.w.BytesWritten()
	err := m.cur.Close()
	m.cur, m.w = nil, nil
	return err
}

// BeginJob is invoked by the batch system prolog: it reprograms the
// PMCs (which zeroes the count registers, exactly as reprogramming the
// event-select MSRs does on hardware) and writes a sample marked
// "begin JOBID".
func (m *Monitor) BeginJob(jobID int64) error {
	m.reprogramPMCs()
	return m.writeSample(fmt.Sprintf("begin %d", jobID))
}

// EndJob is invoked by the epilog: a final sample marked "end JOBID".
func (m *Monitor) EndJob(jobID int64) error {
	return m.writeSample(fmt.Sprintf("end %d", jobID))
}

// Sample is the periodic invocation: it only reads counters, never
// reprograms them, "to avoid overriding measurements initiated by
// users" (§3).
func (m *Monitor) Sample() error {
	return m.writeSample("")
}

func (m *Monitor) writeSample(mark string) error {
	if err := m.ensureFile(); err != nil {
		return err
	}
	if err := m.w.WriteRecord(m.snap, mark); err != nil {
		return err
	}
	m.samples++
	return nil
}

// reprogramPMCs zeroes the hardware performance counter block, the
// observable effect of writing the event-select registers.
func (m *Monitor) reprogramPMCs() {
	typ, _ := procfs.PMCBlock(m.snap.Arch)
	ts := m.snap.Type(typ)
	if ts == nil {
		return
	}
	for _, dev := range ts.Devices() {
		vals := ts.Values(dev)
		for i := range vals {
			vals[i] = 0
		}
	}
}

// Close flushes and closes the current raw file.
func (m *Monitor) Close() error { return m.closeCurrent() }
