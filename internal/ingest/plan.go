package ingest

import (
	"slices"

	"supremm/internal/procfs"
	"supremm/internal/taccstats"
)

// metricPlan is the schema-compiled form of computeInterval: every
// (type, key) pair the interval reduction reads is resolved once per
// file to direct columns in the parser's flat value arrays, so reducing
// a record pair is pure slice indexing with zero map lookups. prev and
// cur columns are resolved separately because an interval can span a
// file boundary where the layouts differ.
type metricPlan struct {
	prevLayout, curLayout *taccstats.Layout
	prevVer, curVer       int
	user, nice, system    []colPair
	irq, softirq          []colPair
	idle, iowait          []colPair
	flopsAMD, flopsIntel  []colPair
	ibTx, ibRx, lnetTx    []colPair
	memUsed               []int
	llite                 []llitePlan
}

// colPair addresses one event counter in the cur and prev flat arrays;
// -1 means the counter is absent there (reads zero).
type colPair struct {
	cur, prev int
}

// llitePlan addresses one Lustre mount's traffic counters; the mount
// name routes the write delta to the scratch or work total.
type llitePlan struct {
	dev         string
	write, read colPair
}

// valid reports whether the plan still matches both layouts; layouts
// grow when a device first appears mid-file, which invalidates plans.
func (p *metricPlan) valid(prev, cur *taccstats.Layout) bool {
	return p != nil && p.curLayout == cur && p.curVer == cur.Version() &&
		p.prevLayout == prev && p.prevVer == prev.Version()
}

// compilePlan resolves every metric path against the two layouts. It
// runs once per file (plus once per rare mid-file device appearance).
func compilePlan(prev, cur *taccstats.Layout) *metricPlan {
	p := &metricPlan{
		prevLayout: prev, prevVer: prev.Version(),
		curLayout: cur, curVer: cur.Version(),
	}
	pairs := func(typ, key string) []colPair {
		cols := cur.Columns(typ, key)
		out := make([]colPair, 0, len(cols))
		for _, c := range cols {
			out = append(out, colPair{cur: c.Col, prev: prev.Column(typ, c.Dev, key)})
		}
		if prev == cur || typ != procfs.TypeCPU {
			return out
		}
		// A CPU device of prev's file that cur's has not seen reads zero
		// in cur: its deltas are zero, and a counter it held moved back.
		for _, pc := range prev.Columns(typ, key) {
			if !slices.ContainsFunc(cols, func(c taccstats.ColRef) bool { return c.Dev == pc.Dev }) {
				out = append(out, colPair{cur: -1, prev: pc.Col})
			}
		}
		return out
	}
	p.user = pairs(procfs.TypeCPU, "user")
	p.nice = pairs(procfs.TypeCPU, "nice")
	p.system = pairs(procfs.TypeCPU, "system")
	p.irq = pairs(procfs.TypeCPU, "irq")
	p.softirq = pairs(procfs.TypeCPU, "softirq")
	p.idle = pairs(procfs.TypeCPU, "idle")
	p.iowait = pairs(procfs.TypeCPU, "iowait")
	p.flopsAMD = pairs(procfs.TypeAMDPMC, "FLOPS")
	p.flopsIntel = pairs(procfs.TypeIntelPMC, "FLOPS")
	p.ibTx = pairs(procfs.TypeIB, "tx_bytes")
	p.ibRx = pairs(procfs.TypeIB, "rx_bytes")
	p.lnetTx = pairs(procfs.TypeLnet, "tx_bytes")
	for _, c := range cur.Columns(procfs.TypeMem, "MemUsed") {
		p.memUsed = append(p.memUsed, c.Col)
	}
	for _, c := range cur.Columns(procfs.TypeLlite, "write_bytes") {
		p.llite = append(p.llite, llitePlan{
			dev:   c.Dev,
			write: colPair{cur: c.Col, prev: prev.Column(procfs.TypeLlite, c.Dev, "write_bytes")},
			read: colPair{
				cur:  cur.Column(procfs.TypeLlite, c.Dev, "read_bytes"),
				prev: prev.Column(procfs.TypeLlite, c.Dev, "read_bytes"),
			},
		})
	}
	return p
}

// at reads a flat column, treating absent (-1) or out-of-range columns
// as zero; prev arrays can be shorter than cur when a device appeared
// after prev was captured.
func at(flat []uint64, col int) uint64 {
	if col < 0 || col >= len(flat) {
		return 0
	}
	return flat[col]
}

// sumEventCols sums eventDelta over every device column of a metric.
func sumEventCols(prev, cur []uint64, cols []colPair) float64 {
	var total float64
	for _, c := range cols {
		total += eventDelta(at(prev, c.prev), at(cur, c.cur))
	}
	return total
}

// computeIntervalPlan is computeInterval over flat arrays: identical
// arithmetic and summation structure, direct indexing instead of map
// lookups. Device sums run in layout (first-appearance) order, the order
// reference.Ingest's map path sums in, so any counter gives its bits.
func computeIntervalPlan(p *metricPlan, prev, cur []uint64, dt float64) Interval {
	user := sumEventCols(prev, cur, p.user) + sumEventCols(prev, cur, p.nice)
	sys := sumEventCols(prev, cur, p.system) +
		sumEventCols(prev, cur, p.irq) + sumEventCols(prev, cur, p.softirq)
	idle := sumEventCols(prev, cur, p.idle)
	iowait := sumEventCols(prev, cur, p.iowait)
	totalCS := user + sys + idle + iowait

	iv := Interval{DtSec: dt}
	if totalCS > 0 {
		iv.UserFrac = user / totalCS
		iv.SysFrac = sys / totalCS
		iv.IdleFrac = (idle + iowait) / totalCS
	}
	var mem float64
	for _, col := range p.memUsed {
		mem += float64(at(cur, col))
	}
	iv.MemUsedKB = mem

	iv.Flops = sumEventCols(prev, cur, p.flopsAMD) + sumEventCols(prev, cur, p.flopsIntel)

	for _, lp := range p.llite {
		d := eventDelta(at(prev, lp.write.prev), at(cur, lp.write.cur))
		switch lp.dev {
		case "scratch":
			iv.ScratchB += d
		case "work":
			iv.WorkB += d
		}
		iv.ReadB += eventDelta(at(prev, lp.read.prev), at(cur, lp.read.cur))
	}
	iv.IBTxB = sumEventCols(prev, cur, p.ibTx)
	iv.IBRxB = sumEventCols(prev, cur, p.ibRx)
	iv.LnetTxB = sumEventCols(prev, cur, p.lnetTx)
	return iv
}
