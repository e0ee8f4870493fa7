package core

import (
	"math"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// ScienceMemory is one row of the Fig 7a report: average memory per
// core broken up by parent science.
type ScienceMemory struct {
	Science      string
	MemPerCoreGB float64
	NodeHours    float64
	Jobs         int
}

// MemoryByScience reproduces Fig 7a.
func (r *Realm) MemoryByScience() []ScienceMemory {
	groups := r.Store.GroupBy(store.ByScience, []store.Metric{store.MetricMemUsed}, r.JobFilter())
	out := make([]ScienceMemory, 0, len(groups))
	for _, g := range groups {
		out = append(out, ScienceMemory{
			Science:      g.Key,
			MemPerCoreGB: g.Mean[store.MetricMemUsed] / float64(r.CoresPerNode),
			NodeHours:    g.NodeHours,
			Jobs:         g.N,
		})
	}
	return out
}

// CPUHours is the Fig 7b report: core-hours split into user, system and
// idle over the realm.
type CPUHours struct {
	TotalCoreHours float64
	UserCoreHours  float64
	SysCoreHours   float64
	IdleCoreHours  float64
}

// CPUHoursReport reproduces Fig 7b from the job records.
func (r *Realm) CPUHoursReport() CPUHours {
	var out CPUHours
	cores := float64(r.CoresPerNode)
	r.Store.Scan(r.JobFilter()).Walk(func(c *store.Columns, rows store.Rows) {
		nodeHours := c.NodeHours()
		user, sys, idle := c.Metric(store.MetricCPUUser), c.Metric(store.MetricCPUSys), c.Metric(store.MetricCPUIdle)
		for j, n := 0, rows.Len(); j < n; j++ {
			i := rows.At(j)
			coreHours := nodeHours[i] * cores
			out.TotalCoreHours += coreHours
			out.UserCoreHours += coreHours * user[i]
			out.SysCoreHours += coreHours * sys[i]
			out.IdleCoreHours += coreHours * idle[i]
		}
	})
	return out
}

// LustreMountReport is the Fig 7c report: filesystem traffic per mount.
type LustreMountReport struct {
	Mount    string
	MeanMBps float64
	PeakMBps float64
}

// LustreByMount reproduces Fig 7c from the system series.
func (r *Realm) LustreByMount() []LustreMountReport {
	mounts := []struct {
		name string
		col  func(store.SystemSample) float64
	}{
		{"scratch", func(s store.SystemSample) float64 { return s.ScratchMBps }},
		{"share", func(s store.SystemSample) float64 { return s.ShareMBps }},
		{"work", func(s store.SystemSample) float64 { return s.WorkMBps }},
	}
	out := make([]LustreMountReport, 0, len(mounts))
	for _, m := range mounts {
		var sum, peak float64
		for _, s := range r.Series {
			v := m.col(s)
			sum += v
			if v > peak {
				peak = v
			}
		}
		mean := math.NaN()
		if len(r.Series) > 0 {
			mean = sum / float64(len(r.Series))
		}
		out = append(out, LustreMountReport{Mount: m.name, MeanMBps: mean, PeakMBps: peak})
	}
	return out
}

// TimePoint is one point of a downsampled system time series.
type TimePoint struct {
	Time  int64
	Value float64
}

// SeriesDaily downsamples a named series column to daily means —
// the rendering resolution of Figs 8, 9 and 11.
func (r *Realm) SeriesDaily(name string) []TimePoint {
	col := store.SeriesColumn(r.Series, name)
	if col == nil {
		return nil
	}
	var out []TimePoint
	var day int64 = -1
	var sum float64
	var n int
	flush := func() {
		if n > 0 {
			out = append(out, TimePoint{Time: day * 86400, Value: sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for i, s := range r.Series {
		d := s.Time / 86400
		if d != day {
			flush()
			day = d
		}
		sum += col[i]
		n++
	}
	flush()
	return out
}

// FlopsDistribution reproduces Fig 10: the kernel density of the
// cluster FLOPS series. Returns the KDE and its curve over the support.
func (r *Realm) FlopsDistribution(points int) (*stats.KDE, []stats.CurvePoint) {
	col := store.SeriesColumn(r.Series, "total_tflops")
	kde := stats.NewKDE(col)
	return kde, kde.SupportCurve(points)
}

// MemoryDistribution reproduces Fig 12: kernel densities of the
// job-level mem_used (black curve) and mem_used_max (red curve).
func (r *Realm) MemoryDistribution(points int) (used, max []stats.CurvePoint) {
	sel := r.Store.Scan(r.JobFilter())
	if sel.Len() == 0 {
		return nil, nil
	}
	return stats.NewKDE(sel.Values(store.MetricMemUsed)).SupportCurve(points),
		stats.NewKDE(sel.Values(store.MetricMemUsedMax)).SupportCurve(points)
}

// FlopsSummary describes the delivered-FLOPS headline of Fig 9/10: the
// long-run mean, the observed peak, and both as fractions of the
// benchmarked machine peak ("actual performance was less than 20 TF
// [of] 579 TF").
type FlopsSummary struct {
	MeanTFlops    float64
	PeakTFlops    float64
	MachinePeakTF float64
	MeanFraction  float64
	PeakFraction  float64
}

// FlopsReport computes the Fig 9 headline numbers.
func (r *Realm) FlopsReport() FlopsSummary {
	d := store.SeriesSummary(r.Series, "total_tflops")
	out := FlopsSummary{
		MeanTFlops:    d.Mean,
		PeakTFlops:    d.Max,
		MachinePeakTF: r.PeakTFlops,
	}
	if r.PeakTFlops > 0 {
		out.MeanFraction = d.Mean / r.PeakTFlops
		out.PeakFraction = d.Max / r.PeakTFlops
	}
	return out
}

// MemorySummary is the Fig 11/12 headline: mean and peak memory per
// node against capacity.
type MemorySummary struct {
	MeanGB       float64
	PeakGB       float64
	CapacityGB   float64
	MeanFraction float64
	// JobMaxMeanGB is the node-hour-weighted mean of per-job peak
	// memory (the red curve's center of mass).
	JobMaxMeanGB float64
}

// MemoryReport computes the Fig 11/12 headline numbers.
func (r *Realm) MemoryReport() MemorySummary {
	d := store.SeriesSummary(r.Series, "mem_used")
	out := MemorySummary{
		MeanGB:     d.Mean,
		PeakGB:     d.Max,
		CapacityGB: r.MemPerNodeGB,
	}
	if r.MemPerNodeGB > 0 {
		out.MeanFraction = d.Mean / r.MemPerNodeGB
	}
	out.JobMaxMeanGB = r.FleetMean(store.MetricMemUsedMax)
	return out
}

// ActiveNodesSummary describes Fig 8: the up/down profile.
type ActiveNodesSummary struct {
	MeanActive   float64
	MinActive    float64
	MaxActive    float64
	ZeroSamples  int // full-cluster outage intervals
	TotalSamples int
}

// ActiveNodesReport computes the Fig 8 headline numbers.
func (r *Realm) ActiveNodesReport() ActiveNodesSummary {
	col := store.SeriesColumn(r.Series, "active_nodes")
	d := stats.Summarize(col)
	out := ActiveNodesSummary{
		MeanActive:   d.Mean,
		MinActive:    d.Min,
		MaxActive:    d.Max,
		TotalSamples: len(col),
	}
	for _, v := range col {
		if v == 0 {
			out.ZeroSamples++
		}
	}
	return out
}
