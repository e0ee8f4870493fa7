// Package reference is the naive oracle the differential tests hold the
// query engine to: plain loops over []store.JobRecord that share no code
// with the store kernels. It has the engine's one definition of a sum
// (DESIGN.md §11): the rows are cut into partitions — the job-end day
// shards of a data directory — each partition's selected rows add into
// a running sum of their own, in row order, and the partition sums add
// in partition order. Min and max compare against ±Inf seeds, so a NaN
// value never wins either.
//
// It is test support: only _test.go files may import it
// (TestOnlyTestsImport holds the module to that).
package reference

import (
	"math"
	"sort"

	"supremm/internal/store"
)

// Parts is a row set cut into partitions, each holding its rows in
// order; the global row order is their concatenation.
type Parts [][]store.JobRecord

// ByEndDay cuts rows by job-end epoch day, days ascending, each day's
// rows in the order rows holds them: the split a data directory's day
// shards hold.
func ByEndDay(rows []store.JobRecord) Parts {
	byDay := map[int64][]store.JobRecord{}
	var days []int64
	for _, r := range rows {
		d := store.EpochDay(r.End)
		if _, ok := byDay[d]; !ok {
			days = append(days, d)
		}
		byDay[d] = append(byDay[d], r)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	parts := make(Parts, len(days))
	for i, d := range days {
		parts[i] = byDay[d]
	}
	return parts
}

// Match reports whether r passes f, field by field.
func Match(r *store.JobRecord, f store.Filter) bool {
	switch {
	case f.Cluster != "" && r.Cluster != f.Cluster,
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

// Aggregate is the node-hour-weighted aggregate of metric m over the
// rows passing f: what store.Reader.Aggregate answers over a set cut
// as p is.
func (p Parts) Aggregate(m store.Metric, f store.Filter) store.Agg {
	nan := math.NaN()
	agg := store.Agg{Mean: nan, StdDev: nan, Min: math.Inf(1), Max: math.Inf(-1), UnweightedMean: nan}
	var sw, swx, plain float64
	for _, part := range p {
		var psw, pswx, pplain float64
		for i := range part {
			r := &part[i]
			if !Match(r, f) {
				continue
			}
			w, v := r.NodeHours(), r.Value(m)
			psw, pswx, pplain = psw+w, pswx+w*v, pplain+v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
			agg.N++
		}
		sw, swx, plain = sw+psw, swx+pswx, plain+pplain
	}
	if agg.N == 0 {
		agg.Min, agg.Max = nan, nan
		return agg
	}
	agg.NodeHours, agg.UnweightedMean = sw, plain/float64(agg.N)
	if sw == 0 {
		return agg
	}
	agg.Mean = swx / sw
	var ss float64
	for _, part := range p {
		var pss float64
		for i := range part {
			if r := &part[i]; Match(r, f) {
				d := r.Value(m) - agg.Mean
				pss += r.NodeHours() * d * d
			}
		}
		ss += pss
	}
	agg.StdDev = math.Sqrt(ss / sw)
	return agg
}

// GroupBy is the node-hour-weighted mean of each metric per value of k
// over the rows passing f, by descending node-hours then key: what
// store.Reader.GroupBy answers over a set cut as p is. A key that is no
// dimension groups every row under "". A key's first partition sums are
// its total so far, as in the engine's merge.
func (p Parts) GroupBy(k store.GroupKey, metrics []store.Metric, f store.Filter) []store.Group {
	type sums struct {
		n   int
		sw  float64
		swx []float64
	}
	total := map[string]*sums{}
	for _, part := range p {
		local := map[string]*sums{}
		for i := range part {
			r := &part[i]
			if !Match(r, f) {
				continue
			}
			key := keyOf(r, k)
			s := local[key]
			if s == nil {
				s = &sums{swx: make([]float64, len(metrics))}
				local[key] = s
			}
			w := r.NodeHours()
			s.n++
			s.sw += w
			for j, m := range metrics {
				s.swx[j] += w * r.Value(m)
			}
		}
		for key, s := range local {
			t := total[key]
			if t == nil {
				total[key] = s
				continue
			}
			t.n, t.sw = t.n+s.n, t.sw+s.sw
			for j := range metrics {
				t.swx[j] += s.swx[j]
			}
		}
	}
	out := make([]store.Group, 0, len(total))
	for key, s := range total {
		g := store.Group{Key: key, N: s.n, NodeHours: s.sw, Mean: make(map[store.Metric]float64, len(metrics))}
		for j, m := range metrics {
			g.Mean[m] = math.NaN()
			if s.sw > 0 {
				g.Mean[m] = s.swx[j] / s.sw
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// keyOf is r's value of dimension k, "" for a key that is no dimension.
func keyOf(r *store.JobRecord, k store.GroupKey) string {
	switch k {
	case store.ByUser:
		return r.User
	case store.ByApp:
		return r.App
	case store.ByScience:
		return r.Science
	case store.ByCluster:
		return r.Cluster
	case store.ByStatus:
		return r.Status
	}
	return ""
}
