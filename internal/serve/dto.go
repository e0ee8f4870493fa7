package serve

import (
	"encoding/json"
	"math"

	"supremm/internal/core"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// F is a JSON-safe float: NaN and ±Inf marshal as null instead of
// failing the whole response, which matters because empty aggregates
// are NaN by contract in internal/store.
type F float64

// MarshalJSON implements json.Marshaler.
func (f F) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func fmap(in map[store.Metric]float64) map[string]F {
	if in == nil {
		return nil
	}
	out := make(map[string]F, len(in))
	for k, v := range in {
		out[string(k)] = F(v)
	}
	return out
}

// aggDTO mirrors store.Agg for the /aggregate response.
type aggDTO struct {
	Metric         string `json:"metric"`
	N              int    `json:"n"`
	NodeHours      F      `json:"node_hours"`
	Mean           F      `json:"mean"`
	StdDev         F      `json:"stddev"`
	Min            F      `json:"min"`
	Max            F      `json:"max"`
	UnweightedMean F      `json:"unweighted_mean"`
}

func newAggDTO(m store.Metric, a store.Agg) aggDTO {
	return aggDTO{
		Metric: string(m), N: a.N, NodeHours: F(a.NodeHours),
		Mean: F(a.Mean), StdDev: F(a.StdDev), Min: F(a.Min), Max: F(a.Max),
		UnweightedMean: F(a.UnweightedMean),
	}
}

// groupDTO is one group-by bucket.
type groupDTO struct {
	Key       string       `json:"key"`
	N         int          `json:"n"`
	NodeHours F            `json:"node_hours"`
	Mean      map[string]F `json:"mean"`
}

// queryDTO is the /query response.
type queryDTO struct {
	GroupBy    string       `json:"group_by"`
	Metrics    []string     `json:"metrics"`
	Normalized bool         `json:"normalized"`
	FleetMeans map[string]F `json:"fleet_means"`
	Groups     []groupDTO   `json:"groups"`
}

func newQueryDTO(res core.QueryResult) queryDTO {
	out := queryDTO{
		GroupBy:    res.Query.GroupBy.Name(),
		Normalized: res.Query.Normalize,
		FleetMeans: fmap(res.FleetMeans),
		Groups:     make([]groupDTO, 0, len(res.Groups)),
	}
	for _, m := range res.Query.Metrics {
		out.Metrics = append(out.Metrics, string(m))
	}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, groupDTO{
			Key: g.Key, N: g.N, NodeHours: F(g.NodeHours), Mean: fmap(g.Mean),
		})
	}
	return out
}

// profileDTO mirrors core.Profile (the Fig 2/3 radar data).
type profileDTO struct {
	Key        string       `json:"key"`
	Cluster    string       `json:"cluster"`
	N          int          `json:"n"`
	NodeHours  F            `json:"node_hours"`
	Normalized map[string]F `json:"normalized"`
	Raw        map[string]F `json:"raw"`
}

func newProfileDTOs(ps []core.Profile) []profileDTO {
	out := make([]profileDTO, 0, len(ps))
	for _, p := range ps {
		out = append(out, profileDTO{
			Key: p.Key, Cluster: p.Cluster, N: p.N, NodeHours: F(p.NodeHours),
			Normalized: fmap(p.Normalized), Raw: fmap(p.Raw),
		})
	}
	return out
}

// efficiencyDTO is the /efficiency response (the Fig 4 scatter).
type efficiencyDTO struct {
	Cluster         string       `json:"cluster"`
	FleetEfficiency F            `json:"fleet_efficiency"`
	WastedTotal     F            `json:"wasted_node_hours_total"`
	Users           []userEffDTO `json:"users"`
	Worst           []userEffDTO `json:"worst,omitempty"`
}

type userEffDTO struct {
	User            string `json:"user"`
	Jobs            int    `json:"jobs"`
	NodeHours       F      `json:"node_hours"`
	WastedNodeHours F      `json:"wasted_node_hours"`
	IdleFrac        F      `json:"idle_frac"`
	Efficiency      F      `json:"efficiency"`
}

func newUserEffDTOs(us []core.UserEfficiency) []userEffDTO {
	out := make([]userEffDTO, 0, len(us))
	for _, u := range us {
		out = append(out, userEffDTO{
			User: u.User, Jobs: u.Jobs, NodeHours: F(u.NodeHours),
			WastedNodeHours: F(u.WastedNodeHours), IdleFrac: F(u.IdleFrac),
			Efficiency: F(u.Efficiency()),
		})
	}
	return out
}

// trendDTO mirrors core.Trend.
type trendDTO struct {
	Metric           string `json:"metric"`
	SlopePerDay      F      `json:"slope_per_day"`
	RelativePerMonth F      `json:"relative_per_month"`
	P                F      `json:"p"`
	Significant      bool   `json:"significant"`
	R2               F      `json:"r2"`
	N                int    `json:"n"`
}

// distributionDTO is a binned histogram of one metric.
type distributionDTO struct {
	Metric     string `json:"metric"`
	N          int    `json:"n"`
	Lo         F      `json:"lo"`
	Hi         F      `json:"hi"`
	Counts     []int  `json:"counts"`
	BinCenters []F    `json:"bin_centers"`
}

func newDistributionDTO(m store.Metric, h *stats.Histogram) distributionDTO {
	d := distributionDTO{
		Metric: string(m), N: h.N, Lo: F(h.Lo), Hi: F(h.Hi), Counts: h.Counts,
	}
	d.BinCenters = make([]F, len(h.Counts))
	for i := range h.Counts {
		d.BinCenters[i] = F(h.BinCenter(i))
	}
	return d
}

// describeDTO mirrors stats.Describe.
type describeDTO struct {
	N      int `json:"n"`
	Mean   F   `json:"mean"`
	StdDev F   `json:"stddev"`
	Min    F   `json:"min"`
	Q25    F   `json:"q25"`
	Median F   `json:"median"`
	Q75    F   `json:"q75"`
	Max    F   `json:"max"`
}

func newDescribeDTO(d stats.Describe) describeDTO {
	return describeDTO{
		N: d.N, Mean: F(d.Mean), StdDev: F(d.StdDev), Min: F(d.Min),
		Q25: F(d.Q25), Median: F(d.Median), Q75: F(d.Q75), Max: F(d.Max),
	}
}

// workloadDTO mirrors core.Characterization.
type workloadDTO struct {
	Cluster                string          `json:"cluster"`
	Jobs                   int             `json:"jobs"`
	TotalNodeHours         F               `json:"total_node_hours"`
	SizeBuckets            []sizeBucketDTO `json:"size_buckets"`
	Runtime                describeDTO     `json:"runtime_min"`
	WeightedMeanRuntimeMin F               `json:"weighted_mean_runtime_min"`
	ScienceShare           []shareDTO      `json:"science_share"`
	AppShare               []shareDTO      `json:"app_share"`
}

type sizeBucketDTO struct {
	Label     string `json:"label"`
	Jobs      int    `json:"jobs"`
	NodeHours F      `json:"node_hours"`
	Share     F      `json:"share"`
}

type shareDTO struct {
	Key       string `json:"key"`
	Jobs      int    `json:"jobs"`
	NodeHours F      `json:"node_hours"`
	Share     F      `json:"share"`
}

func newWorkloadDTO(cluster string, c core.Characterization) workloadDTO {
	out := workloadDTO{
		Cluster: cluster, Jobs: c.Jobs, TotalNodeHours: F(c.TotalNodeHours),
		Runtime:                newDescribeDTO(c.Runtime),
		WeightedMeanRuntimeMin: F(c.WeightedMeanRuntimeMin),
	}
	for _, b := range c.SizeBuckets {
		out.SizeBuckets = append(out.SizeBuckets, sizeBucketDTO{
			Label: b.Label, Jobs: b.Jobs, NodeHours: F(b.NodeHours), Share: F(b.NodeHoursShare),
		})
	}
	toShares := func(rows []core.ShareRow) []shareDTO {
		s := make([]shareDTO, 0, len(rows))
		for _, r := range rows {
			s = append(s, shareDTO{Key: r.Key, Jobs: r.Jobs, NodeHours: F(r.NodeHours), Share: F(r.Share)})
		}
		return s
	}
	out.ScienceShare = toShares(c.ScienceShare)
	out.AppShare = toShares(c.AppShare)
	return out
}

// healthDTO is the /health response. It deliberately excludes paths and
// timestamps so responses stay byte-stable for the golden harness.
type healthDTO struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Cluster    string `json:"cluster"`
	Jobs       int    `json:"jobs"`
	Series     int    `json:"series_samples"`
	Indexed    bool   `json:"indexed"`
	Shards     int    `json:"shards"`
}
