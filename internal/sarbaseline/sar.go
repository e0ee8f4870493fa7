// Package sarbaseline implements the baseline the paper positions
// TACC_Stats against (§1.2, §2): the stock sysstat/SAR measurement
// stack. It reproduces SAR's essential properties and, with them, its
// deficiencies:
//
//   - system-wide resolution only: CPU aggregated over cores, memory
//     node-wide — "does not resolve resource use by job or by user";
//   - no batch awareness: no job marks in the output, so job attribution
//     must be reconstructed externally from accounting windows;
//   - no hardware performance counters: FLOPS are simply not measured
//     (§2: none of the stock tools monitor them);
//   - no Lustre/InfiniBand visibility: the io_* and net_ib_* key metrics
//     do not exist in the output;
//   - a different text format per subsystem (sar -u, sar -r, sar -n DEV),
//     "gathered and reported in many different formats" (§1.2).
//
// The comparison tests and BenchmarkBaselineSAR quantify what this
// costs: only two of the paper's eight key metrics survive, so six of
// the twelve figures cannot be produced at all from SAR data.
package sarbaseline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"supremm/internal/procfs"
)

// CPULine is one `sar -u`-style record: whole-node CPU percentages.
type CPULine struct {
	Time                                int64
	UserPct, SysPct, IowaitPct, IdlePct float64
}

// MemLine is one `sar -r`-style record: node-wide memory.
type MemLine struct {
	Time                     int64
	UsedKB, FreeKB, CachedKB uint64
}

// NetLine is one `sar -n DEV`-style record per device.
type NetLine struct {
	Time           int64
	Device         string
	RxKBps, TxKBps float64
}

// Sampler emits SAR-format text from a node snapshot. Unlike the
// TACC_Stats monitor it keeps three separate writers with three
// different formats and needs the previous counter values internally
// (SAR reports rates, not raw counters).
type Sampler struct {
	cpuW, memW, netW io.Writer

	prevTime int64
	prevCPU  [4]uint64 // user+nice, sys+irq+softirq, iowait, idle
	prevNet  map[string][2]uint64
	started  bool
}

// NewSampler creates a Sampler writing the three SAR report streams.
func NewSampler(cpuW, memW, netW io.Writer) *Sampler {
	return &Sampler{cpuW: cpuW, memW: memW, netW: netW, prevNet: make(map[string][2]uint64)}
}

// Sample reads the snapshot and appends one record to each stream.
// The first call only primes the counters (SAR's first interval is
// discarded too).
func (s *Sampler) Sample(snap *procfs.Snapshot) error {
	var cpu [4]uint64
	if ts := snap.Type(procfs.TypeCPU); ts != nil {
		for _, dev := range ts.Devices() {
			cpu[0] += ts.Get(dev, "user") + ts.Get(dev, "nice")
			cpu[1] += ts.Get(dev, "system") + ts.Get(dev, "irq") + ts.Get(dev, "softirq")
			cpu[2] += ts.Get(dev, "iowait")
			cpu[3] += ts.Get(dev, "idle")
		}
	}
	var nics []string
	nets := make(map[string][2]uint64)
	if ts := snap.Type(procfs.TypeNet); ts != nil {
		nics = ts.Devices()
		for _, dev := range nics {
			nets[dev] = [2]uint64{ts.Get(dev, "rx_bytes"), ts.Get(dev, "tx_bytes")}
		}
	}

	if s.started {
		dt := float64(snap.Time - s.prevTime)
		if dt > 0 {
			var deltas [4]float64
			var total float64
			for i := range cpu {
				deltas[i] = float64(cpu[i] - s.prevCPU[i])
				total += deltas[i]
			}
			if total > 0 {
				if _, err := fmt.Fprintf(s.cpuW, "%d all %.2f %.2f %.2f %.2f\n",
					snap.Time, deltas[0]/total*100, deltas[1]/total*100,
					deltas[2]/total*100, deltas[3]/total*100); err != nil {
					return err
				}
			}
			for _, dev := range nics { // the snapshot's order, not the map's
				cur, prev := nets[dev], s.prevNet[dev]
				rx := float64(cur[0]-prev[0]) / dt / 1024
				tx := float64(cur[1]-prev[1]) / dt / 1024
				if _, err := fmt.Fprintf(s.netW, "%d %s %.2f %.2f\n", snap.Time, dev, rx, tx); err != nil {
					return err
				}
			}
		}
	}

	// Memory is a gauge: report every sample (matching sar -r).
	var used, free, cached uint64
	if ts := snap.Type(procfs.TypeMem); ts != nil {
		for _, dev := range ts.Devices() {
			used += ts.Get(dev, "MemUsed")
			free += ts.Get(dev, "MemFree")
			cached += ts.Get(dev, "Cached")
		}
	}
	if _, err := fmt.Fprintf(s.memW, "%d %d %d %d\n", snap.Time, used, free, cached); err != nil {
		return err
	}

	s.prevTime = snap.Time
	s.prevCPU = cpu
	s.prevNet = nets
	s.started = true
	return nil
}

// ParseCPU parses a sar -u stream.
func ParseCPU(r io.Reader) ([]CPULine, error) {
	var out []CPULine
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 6 || f[1] != "all" {
			return nil, fmt.Errorf("sar cpu line %d: malformed %q", lineNo, sc.Text())
		}
		ts, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sar cpu line %d: bad time", lineNo)
		}
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			vals[i], err = strconv.ParseFloat(f[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("sar cpu line %d: bad value %q", lineNo, f[2+i])
			}
		}
		out = append(out, CPULine{Time: ts, UserPct: vals[0], SysPct: vals[1], IowaitPct: vals[2], IdlePct: vals[3]})
	}
	return out, sc.Err()
}

// ParseMem parses a sar -r stream.
func ParseMem(r io.Reader) ([]MemLine, error) {
	var out []MemLine
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("sar mem line %d: malformed %q", lineNo, sc.Text())
		}
		ts, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sar mem line %d: bad time", lineNo)
		}
		vals := make([]uint64, 3)
		for i := 0; i < 3; i++ {
			vals[i], err = strconv.ParseUint(f[1+i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sar mem line %d: bad value %q", lineNo, f[1+i])
			}
		}
		out = append(out, MemLine{Time: ts, UsedKB: vals[0], FreeKB: vals[1], CachedKB: vals[2]})
	}
	return out, sc.Err()
}

// ParseNet parses a sar -n DEV stream.
func ParseNet(r io.Reader) ([]NetLine, error) {
	var out []NetLine
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("sar net line %d: malformed %q", lineNo, sc.Text())
		}
		ts, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sar net line %d: bad time", lineNo)
		}
		rx, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("sar net line %d: bad rx", lineNo)
		}
		tx, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("sar net line %d: bad tx", lineNo)
		}
		out = append(out, NetLine{Time: ts, Device: f[1], RxKBps: rx, TxKBps: tx})
	}
	return out, sc.Err()
}

// CoveredMetrics lists which of the paper's eight key metrics a
// SAR-only deployment can populate. Hardware counters, Lustre client
// stats and InfiniBand counters are simply absent from sysstat, so
// cpu_flops, io_scratch_write, io_work_write, net_ib_tx, net_lnet_tx
// and mem_used_max (needs per-job peaks, which need job windows plus
// fine sampling of every node SAR aggregates away) cannot be filled.
func CoveredMetrics() []string {
	return []string{"cpu_idle", "mem_used"}
}

// MissingMetrics lists the key metrics SAR cannot provide.
func MissingMetrics() []string {
	return []string{
		"mem_used_max", "cpu_flops", "io_scratch_write",
		"io_work_write", "net_ib_tx", "net_lnet_tx",
	}
}
