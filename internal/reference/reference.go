// Package reference is the naive oracle the differential tests hold the
// query engine to: plain loops over []store.JobRecord that share no code
// with the store kernels, answering every store.Reader query and every
// core and anomaly analysis the daemon serves. It has the engine's one
// definition of a sum (DESIGN.md §11): the rows are cut into partitions
// — the job-end day shards of a data directory — each partition's
// selected rows add into a running sum of their own, in row order, and
// the partition sums add in partition order. Min and max compare
// against ±Inf seeds, so a NaN value never wins either. The analyses
// that are no such sum (Characterize, CPUHours, UsageByScience) add
// their rows in one running sum, in global row order, as the engine's
// do.
//
// Same is the one comparison: answers are equal when they are equal bit
// for bit.
//
// It is test support: only _test.go files may import it
// (TestOnlyTestsImport holds the module to that).
package reference

import (
	"math"
	"reflect"
	"sort"

	"supremm/internal/anomaly"
	"supremm/internal/core"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// Same reports whether a and b are deeply equal with every float
// compared by its bit pattern — NaN equals NaN, -0 differs from +0 — and
// a nil slice or map differing from an empty one.
func Same(a, b any) bool { return same(reflect.ValueOf(a), reflect.ValueOf(b)) }

func same(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); !v.IsValid() || !same(it.Value(), v) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	}
	return a.Equal(b)
}

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

// Select is the global positions of the rows passing f: what
// store.Reader.Select answers, nil when no row passes.
func (p Parts) Select(f store.Filter) []int {
	var out []int
	at := 0
	for _, part := range p {
		for i := range part {
			if Match(&part[i], f) {
				out = append(out, at+i)
			}
		}
		at += len(part)
	}
	return out
}

// Records is the rows passing f in order, never nil: what a Selection's
// Records answers.
func (p Parts) Records(f store.Filter) []store.JobRecord {
	out := []store.JobRecord{}
	for _, part := range p {
		for i := range part {
			if Match(&part[i], f) {
				out = append(out, part[i])
			}
		}
	}
	return out
}

// Values is metric m of the rows passing f in order, nil when no row
// passes: what a Selection's Values and store.Reader.Values answer.
func (p Parts) Values(m store.Metric, f store.Filter) []float64 {
	var out []float64
	for _, part := range p {
		for i := range part {
			if r := &part[i]; Match(r, f) {
				out = append(out, r.Value(m))
			}
		}
	}
	return out
}

// NodeHours is the node-hour total of the rows passing f: what a
// Selection's NodeHours answers over a set cut as p is.
func (p Parts) NodeHours(f store.Filter) float64 {
	var sw float64
	for _, part := range p {
		var psw float64
		for i := range part {
			if r := &part[i]; Match(r, f) {
				psw += r.NodeHours()
			}
		}
		sw += psw
	}
	return sw
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

// Query is core.Realm.RunQuery for a realm of the given cluster: the
// query's group-by under the cluster default, cut to its limit, beside
// each metric's fleet mean (the realm's base population), by which the
// group means are divided when the query normalizes.
func (p Parts) Query(cluster string, q core.Query) core.QueryResult {
	f := q.Filter
	if f.Cluster == "" {
		f.Cluster = cluster
	}
	groups := p.GroupBy(q.GroupBy, q.Metrics, f)
	if q.Limit > 0 && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}
	res := core.QueryResult{Query: q, Groups: groups, FleetMeans: map[store.Metric]float64{}}
	for _, m := range q.Metrics {
		res.FleetMeans[m] = p.Aggregate(m, realm(cluster)).Mean
	}
	if q.Normalize {
		for _, g := range groups {
			for m, mean := range g.Mean {
				if fleet := res.FleetMeans[m]; fleet != 0 {
					g.Mean[m] = mean / fleet
				}
			}
		}
	}
	return res
}

// Profile is core.Realm's radar profile, in a realm of the given cluster,
// of the rows whose user (by store.ByUser) or app (store.ByApp) is key:
// their node-hour-weighted mean of each metric, raw and divided by the
// fleet mean.
func (p Parts) Profile(cluster string, by store.GroupKey, key string, metrics []store.Metric) core.Profile {
	f := realm(cluster)
	if by == store.ByUser {
		f.User = key
	} else {
		f.App = key
	}
	out := core.Profile{Key: key, Cluster: cluster, Normalized: map[store.Metric]float64{}, Raw: map[store.Metric]float64{}}
	groups := p.GroupBy(by, metrics, f)
	if len(groups) > 0 {
		out.N, out.NodeHours = groups[0].N, groups[0].NodeHours
	}
	for _, m := range metrics {
		mean := math.NaN()
		if len(groups) > 0 {
			mean = groups[0].Mean[m]
		}
		out.Raw[m], out.Normalized[m] = mean, math.NaN()
		if fleet := p.Aggregate(m, realm(cluster)).Mean; fleet != 0 && !math.IsNaN(fleet) {
			out.Normalized[m] = mean / fleet
		}
	}
	return out
}

// realm is the base filter of a realm of the given cluster: the §4.1
// population, jobs longer than one sampling interval.
func realm(cluster string) store.Filter {
	return store.Filter{Cluster: cluster, MinSamples: 1}
}

// Characterize is core.Realm.Characterize over the rows passing f.
func (p Parts) Characterize(f store.Filter) core.Characterization {
	recs := p.Records(f)
	out := core.Characterization{Jobs: len(recs)}
	buckets := []core.SizeBucket{
		{Label: "1 node", MinNodes: 1, MaxNodes: 1},
		{Label: "2-15", MinNodes: 2, MaxNodes: 15},
		{Label: "16-63", MinNodes: 16, MaxNodes: 63},
		{Label: "64+", MinNodes: 64, MaxNodes: 0},
	}
	var runtimes []float64
	var wRuntime, wSum float64
	for i := range recs {
		r := &recs[i]
		nh, rt := r.NodeHours(), float64(r.WallclockSec())/60
		out.TotalNodeHours += nh
		runtimes = append(runtimes, rt)
		wRuntime += nh * rt
		wSum += nh
		for k := range buckets {
			if b := &buckets[k]; r.Nodes >= b.MinNodes && (b.MaxNodes == 0 || r.Nodes <= b.MaxNodes) {
				b.Jobs++
				b.NodeHours += nh
				break
			}
		}
	}
	if out.TotalNodeHours > 0 {
		for k := range buckets {
			buckets[k].NodeHoursShare = buckets[k].NodeHours / out.TotalNodeHours
		}
	}
	out.SizeBuckets = buckets
	out.Runtime = stats.Summarize(runtimes)
	out.WeightedMeanRuntimeMin = math.NaN()
	if wSum > 0 {
		out.WeightedMeanRuntimeMin = wRuntime / wSum
	}
	out.ScienceShare = p.shares(store.ByScience, f, out.TotalNodeHours)
	out.AppShare = p.shares(store.ByApp, f, out.TotalNodeHours)
	return out
}

// shares is the node-hours of each value of dimension k among the rows
// passing f, and their share of total.
func (p Parts) shares(k store.GroupKey, f store.Filter, total float64) []core.ShareRow {
	out := []core.ShareRow{}
	for _, g := range p.GroupBy(k, nil, f) {
		row := core.ShareRow{Key: g.Key, NodeHours: g.NodeHours, Jobs: g.N}
		if total > 0 {
			row.Share = g.NodeHours / total
		}
		out = append(out, row)
	}
	return out
}

// CPUHours is core.Realm.CPUHoursReport over the rows passing f, on
// nodes of the given core count.
func (p Parts) CPUHours(f store.Filter, coresPerNode int) core.CPUHours {
	var out core.CPUHours
	for _, r := range p.Records(f) {
		coreHours := r.NodeHours() * float64(coresPerNode)
		out.TotalCoreHours += coreHours
		out.UserCoreHours += coreHours * r.CPUUserFrac
		out.SysCoreHours += coreHours * r.CPUSysFrac
		out.IdleCoreHours += coreHours * r.CPUIdleFrac
	}
	return out
}

// UsageByScience is core.Realm.UsageByScienceOverTime over the rows
// passing f: node-hours and jobs per (end-time bucket of bucketDays,
// default 7; science), by bucket, then descending node-hours.
func (p Parts) UsageByScience(f store.Filter, bucketDays int) []core.ScienceUsagePoint {
	if bucketDays <= 0 {
		bucketDays = 7
	}
	bucketSec := int64(bucketDays) * store.SecondsPerDay
	cells := map[int64]map[string]*core.ScienceUsagePoint{}
	totals := map[int64]float64{}
	for _, r := range p.Records(f) {
		b := r.End / bucketSec * bucketSec
		if cells[b] == nil {
			cells[b] = map[string]*core.ScienceUsagePoint{}
		}
		c := cells[b][r.Science]
		if c == nil {
			c = &core.ScienceUsagePoint{BucketStart: b, Science: r.Science}
			cells[b][r.Science] = c
		}
		c.NodeHours += r.NodeHours()
		c.Jobs++
		totals[b] += r.NodeHours()
	}
	var out []core.ScienceUsagePoint
	for _, cell := range cells {
		for _, c := range cell {
			if totals[c.BucketStart] > 0 {
				c.Share = c.NodeHours / totals[c.BucketStart]
			}
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.BucketStart != b.BucketStart {
			return a.BucketStart < b.BucketStart
		}
		if a.NodeHours != b.NodeHours {
			return a.NodeHours > b.NodeHours
		}
		return a.Science < b.Science
	})
	return out
}

// FailureProfiles is anomaly.FailureProfiles over the rows passing f:
// jobs per value of dimension by (cluster for a key that is no
// dimension) counted by completion status, most jobs first.
func (p Parts) FailureProfiles(by store.GroupKey, f store.Filter) []anomaly.FailureProfile {
	switch by {
	case store.ByUser, store.ByApp, store.ByScience, store.ByCluster, store.ByStatus:
	default:
		by = store.ByCluster
	}
	acc := map[string]*anomaly.FailureProfile{}
	for _, r := range p.Records(f) {
		key := keyOf(&r, by)
		fp := acc[key]
		if fp == nil {
			fp = &anomaly.FailureProfile{Key: key}
			acc[key] = fp
		}
		fp.Jobs++
		switch r.Status {
		case "COMPLETED":
			fp.Completed++
		case "FAILED":
			fp.Failed++
		case "TIMEOUT":
			fp.Timeout++
		case "NODE_FAIL":
			fp.NodeFail++
		}
	}
	out := []anomaly.FailureProfile{}
	for _, fp := range acc {
		fp.FailurePct = float64(fp.Jobs-fp.Completed) / float64(fp.Jobs) * 100
		out = append(out, *fp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jobs != out[j].Jobs {
			return out[i].Jobs > out[j].Jobs
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
