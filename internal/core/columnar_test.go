package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/reference"
	"supremm/internal/store"
)

// mixedRecords is the simulated Ranger month with every 7th job moved
// to another cluster and every 11th left without a sample, so the
// realm's base filter selects a strict, scattered subset (the index-
// indirect arm of the walk) instead of every row.
func mixedRecords(t *testing.T) []store.JobRecord {
	t.Helper()
	ranger, _ := core.Realms(t)
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

// triangular cuts recs into n contiguous partitions of uneven size.
func triangular(recs []store.JobRecord, n int) reference.Parts {
	parts := make(reference.Parts, 0, n)
	for i, lo := 0, 0; i < n; i++ {
		hi := len(recs) * (i + 1) * (i + 2) / (n * (n + 1))
		parts, lo = append(parts, recs[lo:hi]), hi
	}
	return parts
}

// setOf is the engine's shard set over the same partitions as parts.
func setOf(parts reference.Parts) *store.ShardSet {
	cols := make([]*store.Columns, len(parts))
	for i, p := range parts {
		st := store.New()
		for _, rec := range p {
			st.Add(rec)
		}
		cols[i] = st.Columns()
	}
	return store.NewShardSet(cols)
}

// TestColumnarAnalysesMatchRowOracles holds the whole-realm analyses and
// the one-pass profiles to internal/reference, bit for bit, on one shard
// and on five, over a selection that is every row, a scattered subset,
// and empty. The reference selects its rows itself: the realm's base
// filter is restated here, not taken from the realm.
func TestColumnarAnalysesMatchRowOracles(t *testing.T) {
	ranger, _ := core.Realms(t)
	fixtures := map[string][]store.JobRecord{
		"all-rows":  ranger.Store.Scan(store.Filter{}).Records(),
		"scattered": mixedRecords(t),
		"empty":     nil,
	}
	base := store.Filter{Cluster: ranger.Cluster, MinSamples: 1}
	for name, recs := range fixtures {
		probe := store.JobRecord{User: "nobody", App: "nothing"} // whose profile to take
		if len(recs) > 0 {
			probe = recs[len(recs)/2]
		}
		for backing, ref := range map[string]reference.Parts{"1-shard": {recs}, "5-shards": triangular(recs, 5)} {
			r := core.NewRealm(cluster.RangerConfig().Scaled(128), setOf(ref), nil)
			label := name + "/" + backing
			check := func(what string, got, want any) {
				t.Helper()
				if !reference.Same(got, want) {
					t.Errorf("%s: %s diverges from the reference\n got %+v\nwant %+v", label, what, got, want)
				}
			}
			check("Characterize", r.Characterize(), ref.Characterize(base))
			check("CPUHoursReport", r.CPUHoursReport(), ref.CPUHours(base, ranger.CoresPerNode))
			for _, days := range []int{1, 7, 0} {
				check(fmt.Sprintf("UsageByScienceOverTime(%d)", days), r.UsageByScienceOverTime(days), ref.UsageByScience(base, days))
			}
			for _, user := range []string{"no-such-user", probe.User} {
				check("UserProfile "+user, r.UserProfile(user), ref.Profile(ranger.Cluster, store.ByUser, user, store.KeyMetrics()))
			}
			for _, app := range []string{"namd", probe.App} {
				check("AppProfile "+app, r.AppProfile(app), ref.Profile(ranger.Cluster, store.ByApp, app, store.KeyMetrics()))
			}
			check("JobCount", r.JobCount(), len(ref.Records(base)))
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
	r := core.NewRealm(cluster.RangerConfig(), st.AsSet(), nil)
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
