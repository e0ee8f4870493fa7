package core

import (
	"fmt"
	"math"
	"sort"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// Trend is one metric's drift over the analysis period — the resource-
// manager report family of §4.3.5 ("job-level resource use trends",
// "resource use trends and predictions") that supports planning new
// systems.
type Trend struct {
	Metric string
	// SlopePerDay is the fitted drift in metric units per day.
	SlopePerDay float64
	// RelativePerMonth is the drift as a fraction of the series mean
	// per 30 days, the number a planner quotes.
	RelativePerMonth float64
	// P is the two-sided p-value of the slope; trends with P > 0.05 are
	// reported but flagged insignificant.
	P           float64
	Significant bool
	R2          float64
	N           int
}

// SeriesTrend fits a linear trend to a system-series column against
// time in days.
func (r *Realm) SeriesTrend(metric string) (Trend, error) {
	col := store.SeriesColumn(r.Series, metric)
	if col == nil {
		return Trend{}, fmt.Errorf("core: unknown series metric %q", metric)
	}
	if len(col) < 10 {
		return Trend{}, fmt.Errorf("core: series too short for a trend (%d samples)", len(col))
	}
	xs := make([]float64, len(col))
	for i, s := range r.Series {
		xs[i] = float64(s.Time) / 86400
	}
	fit, err := stats.FitLinear(xs, col)
	if err != nil {
		return Trend{}, err
	}
	t := Trend{
		Metric:      metric,
		SlopePerDay: fit.Slope,
		P:           fit.SlopeP,
		Significant: fit.SlopeP < 0.05,
		R2:          fit.R2,
		N:           fit.N,
	}
	if mean := stats.Mean(col); mean != 0 {
		t.RelativePerMonth = fit.Slope * 30 / mean
	}
	return t, nil
}

// TrendReport fits trends for the headline planning metrics.
func (r *Realm) TrendReport() []Trend {
	var out []Trend
	for _, m := range []string{"total_tflops", "mem_used", "io_scratch_write", "net_ib_tx", "cpu_idle"} {
		if t, err := r.SeriesTrend(m); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Characterization is the §4.3.5 "workload characterization" report:
// the shape of the job mix a planner would size a new machine against.
// A realm computes it once and hands every caller the same one, so its
// slices are read-only.
type Characterization struct {
	Jobs           int
	TotalNodeHours float64

	// Job-size distribution (by job count and by node-hours).
	SizeBuckets []SizeBucket

	// Runtime distribution summary, minutes.
	Runtime stats.Describe
	// WeightedMeanRuntimeMin is the node-hour-weighted mean job length
	// (the paper's 549/446-minute statistic, §4.3.4).
	WeightedMeanRuntimeMin float64

	// ScienceShare is each parent science's node-hour share, descending.
	ScienceShare []ShareRow
	// AppShare is each application's node-hour share, descending.
	AppShare []ShareRow
}

// SizeBucket is one row of the size histogram.
type SizeBucket struct {
	Label          string
	MinNodes       int
	MaxNodes       int // inclusive; 0 means unbounded
	Jobs           int
	NodeHours      float64
	NodeHoursShare float64
}

// ShareRow is one group's share of consumption.
type ShareRow struct {
	Key       string
	NodeHours float64
	Share     float64
	Jobs      int
}

// Characterize returns the workload characterization over the realm's
// analyzed jobs. It is a property of the loaded data, so it is computed
// once per realm, as the fleet means are: concurrent first callers wait
// on one fill.
func (r *Realm) Characterize() Characterization {
	return r.character.Get(r.characterize)
}

func (r *Realm) characterize() Characterization {
	sel := r.Store.Scan(r.JobFilter())
	out := Characterization{Jobs: sel.Len()}
	buckets := []SizeBucket{
		{Label: "1 node", MinNodes: 1, MaxNodes: 1},
		{Label: "2-15", MinNodes: 2, MaxNodes: 15},
		{Label: "16-63", MinNodes: 16, MaxNodes: 63},
		{Label: "64+", MinNodes: 64, MaxNodes: 0},
	}
	runtimes := make([]float64, 0, sel.Len())
	var wRuntime, wSum float64
	sel.Walk(func(c *store.Columns, rows []int32) {
		nodeHours := c.NodeHours()
		for _, i := range rows {
			nh := nodeHours[i]
			out.TotalNodeHours += nh
			rt := float64(c.End[i]-c.Start[i]) / 60
			runtimes = append(runtimes, rt)
			wRuntime += nh * rt
			wSum += nh
			nodes := int(c.Nodes[i])
			for k := range buckets {
				b := &buckets[k]
				if nodes >= b.MinNodes && (b.MaxNodes == 0 || nodes <= b.MaxNodes) {
					b.Jobs++
					b.NodeHours += nh
					break
				}
			}
		}
	})
	if out.TotalNodeHours > 0 {
		for i := range buckets {
			buckets[i].NodeHoursShare = buckets[i].NodeHours / out.TotalNodeHours
		}
	}
	out.SizeBuckets = buckets
	out.Runtime = stats.SummarizeOwned(runtimes)
	if wSum > 0 {
		out.WeightedMeanRuntimeMin = wRuntime / wSum
	} else {
		out.WeightedMeanRuntimeMin = math.NaN()
	}
	out.ScienceShare = shares(r.Store.GroupBy(store.ByScience, nil, r.JobFilter()), out.TotalNodeHours)
	out.AppShare = shares(r.Store.GroupBy(store.ByApp, nil, r.JobFilter()), out.TotalNodeHours)
	return out
}

func shares(groups []store.Group, total float64) []ShareRow {
	out := make([]ShareRow, 0, len(groups))
	for _, g := range groups {
		row := ShareRow{Key: g.Key, NodeHours: g.NodeHours, Jobs: g.N}
		if total > 0 {
			row.Share = g.NodeHours / total
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].Key < out[j].Key
	})
	return out
}
