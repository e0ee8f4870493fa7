package store

import (
	"fmt"
	"reflect"
	"testing"
)

// testStore builds a deterministic store with n jobs spread over
// clusters, users and apps.
func testStore(n int) *Store {
	s := New()
	clusters := []string{"ranger", "lonestar4"}
	for i := 0; i < n; i++ {
		r := JobRecord{
			JobID:   int64(1000 + i),
			Cluster: clusters[i%len(clusters)],
			User:    fmt.Sprintf("u%03d", i%97),
			App:     fmt.Sprintf("app%02d", i%13),
			Science: fmt.Sprintf("sci%d", i%7),
			Nodes:   1 + i%32,
			Submit:  int64(1000 * i),
			Start:   int64(1000*i + 60),
			End:     int64(1000*i + 60 + 3600*(1+i%8)),
			Status:  "completed",
			Samples: i % 5,
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 17)
		r.FlopsGF = float64(i%23) * 1.5
		s.Add(r)
	}
	return s
}

func TestSelectIndexedMatchesScan(t *testing.T) {
	s := testStore(5000).AsSet()
	scan := testStore(5000) // the row baseline's twin: it scans every row
	filters := []Filter{
		{},
		{Cluster: "ranger"},
		{User: "u042"},
		{App: "app07"},
		{Cluster: "lonestar4", User: "u011", MinSamples: 2},
		{Cluster: "ranger", App: "app03", Science: "sci2"},
		{User: "nobody"},
		{Cluster: "ranger", EndAfter: 1_000_000, EndBefore: 3_000_000},
		{Science: "sci4"}, // unindexed column: falls back to scan
	}
	for _, f := range filters {
		if got, want := s.Select(f), scan.baselineSelect(f); !reflect.DeepEqual(got, want) {
			t.Errorf("filter %+v: indexed select %d rows, scan %d rows", f, len(got), len(want))
		}
	}
}

// TestAggregateParallelMatchesSequential holds the two aggregate entry
// points to each other on a one-shard set: one kernel behind both, so
// the same bits for any worker count.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	s := testStore(20000).AsSet()
	filters := []Filter{{}, {Cluster: "ranger"}, {User: "u042"}, {User: "nobody"}}
	for _, f := range filters {
		for _, m := range []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops} {
			want := s.Aggregate(m, f)
			for _, w := range []int{1, 2, 3, 16} {
				if got := aggParallel(s, m, f, w); !aggBitsEqual(got, want) {
					t.Fatalf("%v %s: workers=%d: %+v, sequential %+v", f, m, w, got, want)
				}
			}
		}
	}
}

// walkArms are the two arms of walkSet on one shard for the same
// compiled selective filter: the columnar scan, and the posting-list
// walk the shard takes.
func walkArms(sh *Shard, f Filter) (scan, indexed func(b *testing.B)) {
	var cf compiledFilter
	sh.compile(&f, &cf)
	scan = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sh.scanCompiled(&cf)
		}
	}
	indexed = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sh.walkSet(&cf)
		}
	}
	return scan, indexed
}

func BenchmarkStoreSelect(b *testing.B) {
	scan, indexed := walkArms(testStore(100_000).AsSet().ShardAt(0), Filter{User: "u042"})
	b.Run("scan", scan)
	b.Run("indexed", indexed)
}

// TestIndexedSpeedupFloor is the executable form of the acceptance
// criterion: on a 100k-job shard, a selective filter (one user of 500)
// walked through its posting list must be at least 5x faster than the
// columnar scan of the same compiled filter, and select the same rows.
// Benchmarks don't fail CI; this does. The bar is deliberately far
// below the ratio typically measured, so scheduler noise can't flake it.
func TestIndexedSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row timing comparison in -short mode")
	}
	sh, f := floorStore(100_000).AsSet().ShardAt(0), Filter{Cluster: "ranger", User: "u042", MinSamples: 1}
	var cf compiledFilter
	sh.compile(&f, &cf)
	if got, want := sh.walkSet(&cf).idx, sh.scanCompiled(&cf); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("posting-list walk selects %d rows, scan %d", len(got), len(want))
	}
	scanArm, indexedArm := walkArms(sh, f)
	scan, indexed := testing.Benchmark(scanArm), testing.Benchmark(indexedArm)
	ratio := float64(scan.NsPerOp()) / float64(indexed.NsPerOp())
	t.Logf("scan %v/op, indexed %v/op, speedup %.1fx", scan.NsPerOp(), indexed.NsPerOp(), ratio)
	if ratio < 5 {
		t.Errorf("indexed selection only %.1fx faster than scan, want >= 5x", ratio)
	}
}

// TestIndexSkipsValueEveryRowCarries: a posting list that holds every
// row narrows nothing, so none is built for it and a predicate on such a
// value leaves the filter to the others — which must never turn "every
// row has it" into "no row has it". One shard holds a single cluster (a
// realm's data directory), the other two.
func TestIndexSkipsValueEveryRowCarries(t *testing.T) {
	one, two := New(), testStore(600)
	for i := 0; i < two.Len(); i++ {
		r := two.Record(i)
		r.Cluster = "ranger"
		one.Add(r)
	}
	for name, st := range map[string]*Store{"one cluster": one, "two clusters": two} {
		filters := []Filter{
			{Cluster: "ranger"}, {Cluster: "lonestar4"}, {Cluster: "nonesuch"},
			{Cluster: "ranger", User: "u042"}, {Cluster: "ranger", App: "app07", MinSamples: 1},
			{Cluster: "ranger", Status: "completed"}, // status: every row, unindexed column
			{Cluster: "ranger", EndAfter: 200_000},   // the window cuts: what an edge day shard sees
			{Cluster: "ranger", MinSamples: 2},
		}
		ss := st.AsSet()
		for _, f := range filters {
			if got, want := ss.Select(f), st.baselineSelect(f); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %+v: %d rows, row baseline %d", name, f, len(got), len(want))
			}
		}
		part := ss.ShardAt(0)
		for code, v := range part.c.Cluster.Values {
			every := part.c.Cluster.counts[code] == part.c.Len()
			if list := part.idx.cluster[code]; every != (list == nil) {
				t.Errorf("%s: cluster %q carried by every row = %v, posting list kept = %v", name, v, every, list != nil)
			} else if !every && len(list) != part.c.Cluster.counts[code] {
				t.Errorf("%s: cluster %q has %d rows and a list of %d", name, v, part.c.Cluster.counts[code], len(list))
			}
		}
	}
	// With its one cluster's list gone, a window-cut broad filter scans
	// the shard's columns instead of chasing every row id through it.
	var cf compiledFilter
	if !one.AsSet().ShardAt(0).compile(&Filter{Cluster: "ranger", EndAfter: 200_000}, &cf) || cf.cluster >= 0 || cf.endAfter == 0 || cf.whole != popNone {
		t.Errorf("compiled %+v: the vacuous cluster predicate survived, or the window did not", cf)
	}
}

// requireIndexed fails unless every shard of ss carries exactly the
// posting lists its columns invert to. A shard built without them has
// nil lists where newIndex makes (possibly empty) ones, so even a
// zero-row shard tells the two apart.
func requireIndexed(t *testing.T, label string, ss *ShardSet) {
	t.Helper()
	if ss.NumShards() == 0 {
		t.Fatalf("%s: no shard to check", label)
	}
	for i := 0; i < ss.NumShards(); i++ {
		if sh := ss.ShardAt(i); !reflect.DeepEqual(sh.idx, newIndex(sh.c)) {
			t.Errorf("%s: shard %d (day %d) is not indexed", label, i, sh.ID())
		}
	}
}

// TestEveryShardIsIndexed: whichever way a shard comes into being — an
// in-memory set (NewShardSet, AsSet, a zero-row part included), a strict
// load, a degraded load, adoption by the next generation, or the decode
// of a day the heal pass repaired (serve's reloader: a load that faults,
// RepairShard, a second load adopting the rest from the first) — it is
// indexed, with nothing left to call.
func TestEveryShardIsIndexed(t *testing.T) {
	dir, st, entries, _ := healFixture(t, 2500)
	requireIndexed(t, "AsSet", st.AsSet())
	requireIndexed(t, "NewShardSet", NewShardSet(splitParts(st, []int{700, 700, 2100})))
	full, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIndexed(t, "LoadShardSet", full)
	next, err := LoadShardSet(dir, full)
	if err != nil || next.LoadStats().Reused != len(entries) || next.ShardAt(0) != full.ShardAt(0) {
		t.Fatalf("next generation (err %v): want every shard adopted by pointer", err)
	}
	requireIndexed(t, "adopted", next)

	victim := entries[len(entries)/2]
	if moved, err := QuarantineShard(dir, victim, "drill", 0); err != nil || !moved {
		t.Fatalf("quarantine: moved %v, err %v", moved, err)
	}
	degraded, faults := LoadShardsDegraded(dir, entries, nil, nil)
	if len(faults) != 1 || faults[0].Info.ID != victim.ID {
		t.Fatalf("faults = %+v, want exactly day %d", faults, victim.ID)
	}
	requireIndexed(t, "LoadShardsDegraded", degraded)

	if err := RepairShard(dir, victim, st); err != nil {
		t.Fatal(err)
	}
	healed, faults := LoadShardsDegraded(dir, entries, degraded, nil)
	if len(faults) != 0 || healed.LoadStats() != (ShardLoadStats{Loaded: 1, Reused: len(entries) - 1}) {
		t.Fatalf("heal pass: faults %+v, stats %+v; want the repaired day decoded and the rest adopted", faults, healed.LoadStats())
	}
	requireIndexed(t, "repaired by the heal pass", healed)
}
