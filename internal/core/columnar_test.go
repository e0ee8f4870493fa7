package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// The row-loop implementations Characterize, CPUHoursReport and
// UsageByScienceOverTime had before they moved onto the store's ordered
// row walk, kept verbatim as oracles: they materialize every JobRecord
// through Scan's Records and add the fields up in record order.

func characterizeRows(r *Realm) Characterization {
	recs := r.Store.Scan(r.JobFilter()).Records()
	out := Characterization{Jobs: len(recs)}
	buckets := []SizeBucket{
		{Label: "1 node", MinNodes: 1, MaxNodes: 1},
		{Label: "2-15", MinNodes: 2, MaxNodes: 15},
		{Label: "16-63", MinNodes: 16, MaxNodes: 63},
		{Label: "64+", MinNodes: 64, MaxNodes: 0},
	}
	var runtimes []float64
	var wRuntime, wSum float64
	for _, rec := range recs {
		nh := rec.NodeHours()
		out.TotalNodeHours += nh
		rt := float64(rec.WallclockSec()) / 60
		runtimes = append(runtimes, rt)
		wRuntime += nh * rt
		wSum += nh
		for i := range buckets {
			b := &buckets[i]
			if rec.Nodes >= b.MinNodes && (b.MaxNodes == 0 || rec.Nodes <= b.MaxNodes) {
				b.Jobs++
				b.NodeHours += nh
				break
			}
		}
	}
	if out.TotalNodeHours > 0 {
		for i := range buckets {
			buckets[i].NodeHoursShare = buckets[i].NodeHours / out.TotalNodeHours
		}
	}
	out.SizeBuckets = buckets
	out.Runtime = stats.Summarize(runtimes)
	if wSum > 0 {
		out.WeightedMeanRuntimeMin = wRuntime / wSum
	} else {
		out.WeightedMeanRuntimeMin = math.NaN()
	}
	out.ScienceShare = shares(r.Store.GroupBy(store.ByScience, nil, r.JobFilter()), out.TotalNodeHours)
	out.AppShare = shares(r.Store.GroupBy(store.ByApp, nil, r.JobFilter()), out.TotalNodeHours)
	return out
}

func cpuHoursRows(r *Realm) CPUHours {
	var out CPUHours
	for _, rec := range r.Store.Scan(r.JobFilter()).Records() {
		coreHours := rec.NodeHours() * float64(r.CoresPerNode)
		out.TotalCoreHours += coreHours
		out.UserCoreHours += coreHours * rec.CPUUserFrac
		out.SysCoreHours += coreHours * rec.CPUSysFrac
		out.IdleCoreHours += coreHours * rec.CPUIdleFrac
	}
	return out
}

func usageByScienceRows(r *Realm, bucketDays int) []ScienceUsagePoint {
	if bucketDays <= 0 {
		bucketDays = 7
	}
	bucketSec := int64(bucketDays) * 86400
	type cell struct {
		nh   float64
		jobs int
	}
	buckets := make(map[int64]map[string]*cell)
	totals := make(map[int64]float64)
	for _, rec := range r.Store.Scan(r.JobFilter()).Records() {
		b := rec.End / bucketSec * bucketSec
		m := buckets[b]
		if m == nil {
			m = make(map[string]*cell)
			buckets[b] = m
		}
		c := m[rec.Science]
		if c == nil {
			c = &cell{}
			m[rec.Science] = c
		}
		nh := rec.NodeHours()
		c.nh += nh
		c.jobs++
		totals[b] += nh
	}
	starts := make([]int64, 0, len(buckets))
	for b := range buckets {
		starts = append(starts, b)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var out []ScienceUsagePoint
	for _, b := range starts {
		var rows []ScienceUsagePoint
		for sci, c := range buckets[b] {
			p := ScienceUsagePoint{BucketStart: b, Science: sci, NodeHours: c.nh, Jobs: c.jobs}
			if totals[b] > 0 {
				p.Share = c.nh / totals[b]
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

// profileByAggregates is profileFor as it was: one full Aggregate
// (selection, two passes) per metric instead of one group-by for all.
func profileByAggregates(r *Realm, key string, f store.Filter, metrics []store.Metric) Profile {
	p := Profile{
		Key:        key,
		Cluster:    r.Cluster,
		Normalized: make(map[store.Metric]float64, len(metrics)),
		Raw:        make(map[store.Metric]float64, len(metrics)),
	}
	for _, m := range metrics {
		agg := r.Store.Aggregate(m, f)
		p.N = agg.N
		p.NodeHours = agg.NodeHours
		p.Raw[m] = agg.Mean
		fleet := r.FleetMean(m)
		if fleet != 0 && !math.IsNaN(fleet) {
			p.Normalized[m] = agg.Mean / fleet
		} else {
			p.Normalized[m] = math.NaN()
		}
	}
	return p
}

// bitsEqual is reflect.DeepEqual with floats compared by bit pattern,
// so NaN equals NaN and -0 differs from +0.
func bitsEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); !v.IsValid() || !bitsEqual(it.Value(), v) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// mixedRecords is the simulated Ranger month with every 7th job moved
// to another cluster and every 11th left without a sample, so the
// realm's base filter selects a strict, scattered subset (the index-
// indirect arm of the walk) instead of every row.
func mixedRecords(t *testing.T) []store.JobRecord {
	t.Helper()
	ranger, _ := realms(t)
	recs := ranger.Store.Scan(store.Filter{}).Records()
	for i := range recs {
		if i%7 == 3 {
			recs[i].Cluster = "elsewhere"
		}
		if i%11 == 5 {
			recs[i].Samples = 0
		}
	}
	return recs
}

// storeOf builds an in-memory store; shardsOf cuts the same rows into
// n contiguous partitions of uneven size.
func storeOf(recs []store.JobRecord) *store.Store {
	st := store.New()
	for _, rec := range recs {
		st.Add(rec)
	}
	return st
}

func shardsOf(recs []store.JobRecord, n int) *store.ShardSet {
	parts := make([]*store.Columns, 0, n)
	for i, lo := 0, 0; i < n; i++ {
		hi := len(recs) * (i + 1) * (i + 2) / (n * (n + 1)) // triangular cuts
		parts = append(parts, storeOf(recs[lo:hi]).Columns())
		lo = hi
	}
	return store.NewShardSet(parts)
}

// TestColumnarAnalysesMatchRowOracles holds the three whole-realm
// analyses to their row-loop predecessors, and the one-pass profiles to
// their aggregate-per-metric predecessor, bit for bit, on one shard
// and on five, over a selection that is every row, a scattered subset,
// and empty.
func TestColumnarAnalysesMatchRowOracles(t *testing.T) {
	ranger, _ := realms(t)
	fixtures := map[string][]store.JobRecord{
		"all-rows":  ranger.Store.Scan(store.Filter{}).Records(),
		"scattered": mixedRecords(t),
		"empty":     nil,
	}
	for name, recs := range fixtures {
		probe := store.JobRecord{User: "nobody", App: "nothing"} // whose profile to take
		if len(recs) > 0 {
			probe = recs[len(recs)/2]
		}
		backings := map[string]func() store.Reader{
			"1-shard":  func() store.Reader { return storeOf(recs).AsSet() },
			"5-shards": func() store.Reader { return shardsOf(recs, 5) },
		}
		for backing, build := range backings {
			st := build()
			r := NewRealm(ranger.Cluster, ranger.CoresPerNode, ranger.MemPerNodeGB, ranger.PeakTFlops, st, nil)
			label := name + "/" + backing
			check := func(what string, got, want any) {
				t.Helper()
				if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
					t.Errorf("%s: %s diverges from the row oracle\n got %+v\nwant %+v", label, what, got, want)
				}
			}
			check("Characterize", r.Characterize(), characterizeRows(r))
			check("CPUHoursReport", r.CPUHoursReport(), cpuHoursRows(r))
			for _, days := range []int{1, 7, 0} {
				check(fmt.Sprintf("UsageByScienceOverTime(%d)", days), r.UsageByScienceOverTime(days), usageByScienceRows(r, days))
			}
			for _, user := range []string{"no-such-user", probe.User} {
				f := r.JobFilter()
				f.User = user
				check("UserProfile "+user, r.UserProfile(user), profileByAggregates(r, user, f, store.KeyMetrics()))
			}
			for _, app := range []string{"namd", probe.App} {
				f := r.JobFilter()
				f.App = app
				check("AppProfile "+app, r.AppProfile(app), profileByAggregates(r, app, f, store.KeyMetrics()))
			}
			if got, want := r.JobCount(), len(st.Scan(r.JobFilter()).Records()); got != want {
				t.Errorf("%s: JobCount = %d, want %d", label, got, want)
			}
		}
	}
}

// allocated reports the bytes and objects one call of fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestColumnarAnalysesAllocationCeiling pins what the rewrite bought:
// no analysis allocates per selected row beyond the one float64 the
// runtime quantiles need (a materialized JobRecord is ~250 B per row).
func TestColumnarAnalysesAllocationCeiling(t *testing.T) {
	const rows = 100_000
	st := store.New()
	for i := 0; i < rows; i++ {
		st.Add(store.JobRecord{
			JobID: int64(i), Cluster: "ranger", User: fmt.Sprintf("u%d", i%97), App: fmt.Sprintf("a%d", i%13),
			Science: fmt.Sprintf("s%d", i%7), Status: "COMPLETED", Nodes: 1 + i%80,
			Start: int64(i) * 60, End: int64(i)*60 + 3600 + int64(i%500), Samples: 6,
			CPUIdleFrac: 0.1, CPUUserFrac: 0.8, CPUSysFrac: 0.1,
		})
	}
	r := NewRealm("ranger", 16, 32, 579, st.AsSet(), nil)
	if r.JobCount() != rows {
		t.Fatalf("JobCount = %d, want %d", r.JobCount(), rows)
	}

	if bytes, _ := allocated(func() { r.Characterize() }); bytes >= 16*rows {
		t.Errorf("Characterize allocated %d B for %d rows (%.1f B/row), want < 16 B/row", bytes, rows, float64(bytes)/rows)
	}
	for name, fn := range map[string]func(){
		"CPUHoursReport": func() { r.CPUHoursReport() },
		"JobCount":       func() { r.JobCount() },
	} {
		// O(1): a handful of small objects, nothing that scales with rows.
		if bytes, objects := allocated(fn); objects > 8 || bytes > 1024 {
			t.Errorf("%s allocated %d objects / %d B on %d rows, want O(1)", name, objects, bytes, rows)
		}
	}
}
