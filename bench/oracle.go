package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// The oracle answers aggregate, distribution and query by a naive scan
// over the generated records. It never goes through internal/store, so
// a kernel, index or cache bug cannot agree with itself.

// oracle holds the records the daemon is expected to be serving.
type oracle struct {
	jobs []JobRecord
	// fleet memoizes the per-metric fleet mean /query reports beside
	// every answer; it depends only on jobs.
	fleet map[Metric]*float64
}

func newOracle(jobs []JobRecord) *oracle {
	return &oracle{jobs: jobs, fleet: map[Metric]*float64{}}
}

func (o *oracle) fleetMean(m Metric) *float64 {
	v, ok := o.fleet[m]
	if !ok {
		v = oracleAggregate(o.jobs, m, Filter{MinSamples: 1}).Mean
		o.fleet[m] = v
	}
	return v
}

// matches mirrors the HTTP filter semantics: realm cluster by default,
// end window half-open [EndAfter, EndBefore).
func matches(r *JobRecord, f Filter) bool {
	cluster := f.Cluster
	if cluster == "" {
		cluster = clusterName
	}
	switch {
	case r.Cluster != cluster,
		f.User != "" && r.User != f.User,
		f.App != "" && r.App != f.App,
		f.Science != "" && r.Science != f.Science,
		f.Status != "" && r.Status != f.Status,
		r.Samples < f.MinSamples,
		f.EndAfter != 0 && r.End < f.EndAfter,
		f.EndBefore != 0 && r.End >= f.EndBefore:
		return false
	}
	return true
}

// oracleAgg is the expected /aggregate body; nil pointers are JSON null.
type oracleAgg struct {
	N                                      int
	NodeHours                              float64
	Mean, StdDev, Min, Max, UnweightedMean *float64
}

func fptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func oracleAggregate(jobs []JobRecord, m Metric, f Filter) oracleAgg {
	var n int
	var sw, swx, plain float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range jobs {
		r := &jobs[i]
		if !matches(r, f) {
			continue
		}
		w, v := r.NodeHours(), r.Value(m)
		n++
		sw += w
		swx += w * v
		plain += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	out := oracleAgg{N: n, NodeHours: sw}
	if n == 0 {
		return out
	}
	out.Min, out.Max, out.UnweightedMean = fptr(lo), fptr(hi), fptr(plain/float64(n))
	if sw == 0 {
		return out
	}
	mean := swx / sw
	var ss float64
	for i := range jobs {
		if r := &jobs[i]; matches(r, f) {
			d := r.Value(m) - mean
			ss += r.NodeHours() * d * d
		}
	}
	out.Mean, out.StdDev = fptr(mean), fptr(math.Sqrt(ss/sw))
	return out
}

// oracleDistribution returns the expected histogram counts and range.
func oracleDistribution(jobs []JobRecord, m Metric, f Filter, bins int) (n int, lo, hi float64, counts []int) {
	var vals []float64
	for i := range jobs {
		if r := &jobs[i]; matches(r, f) {
			vals = append(vals, r.Value(m))
		}
	}
	if len(vals) == 0 {
		return 0, 0, 0, nil
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi <= lo {
		return 0, lo, hi, nil
	}
	counts = make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, v := range vals {
		i := int((v - lo) / width)
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return len(vals), lo, hi, counts
}

type oracleGroup struct {
	Key       string
	N         int
	NodeHours float64
	Mean      map[string]*float64
}

func oracleKey(r *JobRecord, group string) string {
	switch group {
	case "app":
		return r.App
	case "science":
		return r.Science
	default:
		return r.User
	}
}

// oracleQuery returns the expected /query groups (ordered by node-hours
// descending then key, cut at limit) and fleet means.
func (o *oracle) query(group string, metrics []Metric, f Filter, limit int) ([]oracleGroup, map[string]*float64) {
	jobs := o.jobs
	type acc struct {
		n   int
		sw  float64
		swx []float64
	}
	accs := map[string]*acc{}
	for i := range jobs {
		r := &jobs[i]
		if !matches(r, f) {
			continue
		}
		a := accs[oracleKey(r, group)]
		if a == nil {
			a = &acc{swx: make([]float64, len(metrics))}
			accs[oracleKey(r, group)] = a
		}
		w := r.NodeHours()
		a.n++
		a.sw += w
		for j, m := range metrics {
			a.swx[j] += w * r.Value(m)
		}
	}
	groups := make([]oracleGroup, 0, len(accs))
	for key, a := range accs {
		g := oracleGroup{Key: key, N: a.n, NodeHours: a.sw, Mean: map[string]*float64{}}
		for j, m := range metrics {
			g.Mean[string(m)] = fptr(a.swx[j] / a.sw) // 0/0 is NaN, rendered null
		}
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].NodeHours != groups[j].NodeHours {
			return groups[i].NodeHours > groups[j].NodeHours
		}
		return groups[i].Key < groups[j].Key
	})
	if limit > 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	fleet := map[string]*float64{}
	for _, m := range metrics {
		fleet[string(m)] = o.fleetMean(m)
	}
	return groups, fleet
}

// ---- comparing a response body with the oracle ----

const floatTol = 1e-9

func sameFloat(got, want *float64) bool {
	if got == nil || want == nil {
		return got == want
	}
	if *got == *want {
		return true
	}
	return math.Abs(*got-*want) <= floatTol*math.Max(math.Abs(*got), math.Abs(*want))
}

func sameFloatMap(got, want map[string]*float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !sameFloat(g, w) {
			return false
		}
	}
	return true
}

// check compares one data response with the oracle's answer: counts
// exactly, floats to 1e-9 relative. Dashboard requests have no oracle
// and pass on a non-empty body. Not safe for concurrent use.
func (o *oracle) check(r *request, body []byte) error {
	jobs := o.jobs
	switch r.kind {
	case kindAggregate:
		var got struct {
			Metric         string   `json:"metric"`
			N              int      `json:"n"`
			NodeHours      *float64 `json:"node_hours"`
			Mean           *float64 `json:"mean"`
			StdDev         *float64 `json:"stddev"`
			Min            *float64 `json:"min"`
			Max            *float64 `json:"max"`
			UnweightedMean *float64 `json:"unweighted_mean"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := oracleAggregate(jobs, r.metric, r.filter)
		if got.N != want.N || got.Metric != string(r.metric) {
			return fmt.Errorf("aggregate n=%d, oracle %d", got.N, want.N)
		}
		for _, p := range [][2]*float64{
			{got.NodeHours, &want.NodeHours}, {got.Mean, want.Mean}, {got.StdDev, want.StdDev},
			{got.Min, want.Min}, {got.Max, want.Max}, {got.UnweightedMean, want.UnweightedMean},
		} {
			if !sameFloat(p[0], p[1]) {
				return fmt.Errorf("aggregate float differs from oracle: %s", body)
			}
		}
	case kindDistribution:
		var got struct {
			N      int      `json:"n"`
			Lo     *float64 `json:"lo"`
			Hi     *float64 `json:"hi"`
			Counts []int    `json:"counts"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		n, lo, hi, counts := oracleDistribution(jobs, r.metric, r.filter, r.bins)
		if got.N != n || len(got.Counts) != len(counts) || !sameFloat(got.Lo, &lo) || !sameFloat(got.Hi, &hi) {
			return fmt.Errorf("distribution n=%d bins=%d, oracle n=%d bins=%d", got.N, len(got.Counts), n, len(counts))
		}
		for i := range counts {
			if got.Counts[i] != counts[i] {
				return fmt.Errorf("distribution bin %d = %d, oracle %d", i, got.Counts[i], counts[i])
			}
		}
	case kindQuery:
		var got struct {
			FleetMeans map[string]*float64 `json:"fleet_means"`
			Groups     []struct {
				Key       string              `json:"key"`
				N         int                 `json:"n"`
				NodeHours *float64            `json:"node_hours"`
				Mean      map[string]*float64 `json:"mean"`
			} `json:"groups"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		groups, fleet := o.query(r.group, r.metrics, r.filter, r.limit)
		if len(got.Groups) != len(groups) || !sameFloatMap(got.FleetMeans, fleet) {
			return fmt.Errorf("query has %d groups, oracle %d (or fleet means differ)", len(got.Groups), len(groups))
		}
		for i, w := range groups {
			g := got.Groups[i]
			if g.Key != w.Key || g.N != w.N || !sameFloat(g.NodeHours, &w.NodeHours) || !sameFloatMap(g.Mean, w.Mean) {
				return fmt.Errorf("query group %d is %q n=%d, oracle %q n=%d", i, g.Key, g.N, w.Key, w.N)
			}
		}
	default:
		if len(body) == 0 {
			return fmt.Errorf("empty body")
		}
	}
	return nil
}
