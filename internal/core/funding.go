package core

import (
	"sort"

	"supremm/internal/store"
)

// ScienceUsagePoint is one (time bucket, science) cell of the funding-
// agency report (§4.3.6: "resource use trends by application area",
// "patterns of resource use by discipline").
type ScienceUsagePoint struct {
	BucketStart int64 // unix seconds
	Science     string
	NodeHours   float64
	Jobs        int
	// Share is the science's fraction of the bucket's node-hours.
	Share float64
}

// UsageByScienceOverTime buckets the realm's jobs by end time into
// windows of bucketDays and reports each parent science's consumption
// per bucket, ordered by bucket then descending node-hours. Jobs are
// attributed to the bucket containing their end time (the accounting
// convention).
func (r *Realm) UsageByScienceOverTime(bucketDays int) []ScienceUsagePoint {
	if bucketDays <= 0 {
		bucketDays = 7
	}
	bucketSec := int64(bucketDays) * 86400
	type cell struct {
		nh   float64
		jobs int
	}
	type bucket struct {
		cells map[string]*cell
		total float64
	}
	buckets := make(map[int64]*bucket)
	r.Store.Scan(r.JobFilter()).Walk(func(c *store.Columns, rows []int32) {
		nodeHours, science := c.NodeHours(), c.KeyColumn(store.ByScience)
		// Consecutive rows mostly share a bucket (a day shard never
		// straddles one), so it is looked up once per run of rows.
		var cur *bucket
		var curStart int64
		for _, i := range rows {
			if b := c.End[i] / bucketSec * bucketSec; cur == nil || b != curStart {
				if cur = buckets[b]; cur == nil {
					cur = &bucket{cells: make(map[string]*cell)}
					buckets[b] = cur
				}
				curStart = b
			}
			sci := science.Values[science.Codes[i]]
			cl := cur.cells[sci]
			if cl == nil {
				cl = &cell{}
				cur.cells[sci] = cl
			}
			cl.nh += nodeHours[i]
			cl.jobs++
			cur.total += nodeHours[i]
		}
	})
	starts := make([]int64, 0, len(buckets))
	for b := range buckets {
		starts = append(starts, b)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var out []ScienceUsagePoint
	for _, b := range starts {
		var rows []ScienceUsagePoint
		for sci, c := range buckets[b].cells {
			p := ScienceUsagePoint{BucketStart: b, Science: sci, NodeHours: c.nh, Jobs: c.jobs}
			if total := buckets[b].total; total > 0 {
				p.Share = c.nh / total
			}
			rows = append(rows, p)
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].NodeHours != rows[j].NodeHours {
				return rows[i].NodeHours > rows[j].NodeHours
			}
			return rows[i].Science < rows[j].Science
		})
		out = append(out, rows...)
	}
	return out
}

// EffectiveUseReport is the §4.3.6 accountability headline: "fractions
// of resources which are effectively applied by system" — delivered
// core-hours in user state over total capacity-hours of the study
// window, alongside the scheduling (allocation) utilization.
type EffectiveUseReport struct {
	// AllocatedFraction is node-hours scheduled / node-hours of capacity
	// (up nodes integrated over the window).
	AllocatedFraction float64
	// EffectiveFraction further discounts allocated time by CPU idle:
	// the share of capacity that did user work.
	EffectiveFraction float64
	CapacityNodeHours float64
	UsedNodeHours     float64
}

// EffectiveUse computes the accountability report from the series and
// job records.
func (r *Realm) EffectiveUse() EffectiveUseReport {
	var rep EffectiveUseReport
	if len(r.Series) < 2 {
		return rep
	}
	// Capacity: integrate active nodes over sample intervals.
	for i := 1; i < len(r.Series); i++ {
		dtH := float64(r.Series[i].Time-r.Series[i-1].Time) / 3600
		rep.CapacityNodeHours += float64(r.Series[i].ActiveNodes) * dtH
	}
	rep.UsedNodeHours = r.TotalNodeHours()
	if rep.CapacityNodeHours > 0 {
		rep.AllocatedFraction = rep.UsedNodeHours / rep.CapacityNodeHours
		rep.EffectiveFraction = rep.AllocatedFraction * r.FleetEfficiency()
	}
	return rep
}

// SystemComparison lines up two realms' headline numbers — the cross-
// system view a funding agency reads ("range across all of the systems
// for which a funding agency is responsible", §4.3.6).
type SystemComparison struct {
	Rows []SystemRow
}

// SystemRow is one system's headline summary.
type SystemRow struct {
	Cluster           string
	Jobs              int
	NodeHours         float64
	Efficiency        float64
	MeanTFlops        float64
	PeakShare         float64 // delivered mean / machine peak
	MemFraction       float64
	AllocatedFraction float64
}

// CompareSystems builds the cross-system table.
func CompareSystems(realms ...*Realm) SystemComparison {
	var cmp SystemComparison
	for _, r := range realms {
		f := r.FlopsReport()
		m := r.MemoryReport()
		e := r.EffectiveUse()
		cmp.Rows = append(cmp.Rows, SystemRow{
			Cluster:           r.Cluster,
			Jobs:              r.JobCount(),
			NodeHours:         r.TotalNodeHours(),
			Efficiency:        r.FleetEfficiency(),
			MeanTFlops:        f.MeanTFlops,
			PeakShare:         f.MeanFraction,
			MemFraction:       m.MeanFraction,
			AllocatedFraction: e.AllocatedFraction,
		})
	}
	return cmp
}
