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
	s.BuildIndex()
	scan := testStore(5000) // unindexed twin: the baseline scans every row
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
		want := scan.baselineSelect(f)
		got := s.Select(f)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("filter %+v: indexed select %d rows, scan %d rows", f, len(got), len(want))
		}
	}
}

func TestIndexInvalidatedByAdd(t *testing.T) {
	s := testStore(100)
	s.BuildIndex()
	if !s.HasIndex() {
		t.Fatal("BuildIndex did not install an index")
	}
	s.Add(JobRecord{JobID: 9999, Cluster: "ranger", User: "newuser", Status: "completed"})
	if s.HasIndex() {
		t.Fatal("Add must drop the index: stale postings would hide the new row")
	}
	if got := s.AsSet().Scan(Filter{User: "newuser"}).Len(); got != 1 {
		t.Fatalf("new row not visible after Add: got %d rows", got)
	}
}

// TestAggregateParallelMatchesSequential holds the two aggregate entry
// points to each other on an indexed one-shard set: one kernel behind
// both, so the same bits for any worker count.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	s := testStore(20000).AsSet()
	s.BuildIndex()
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

func BenchmarkStoreSelect(b *testing.B) {
	s := testStore(100_000).AsSet()
	f := Filter{User: "u042"}
	b.Run("scan", func(b *testing.B) { // no index yet: Select scans
		for i := 0; i < b.N; i++ {
			s.Select(f)
		}
	})
	s.BuildIndex()
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Select(f)
		}
	})
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
		scanned, indexed := st.AsSet(), st.AsSet()
		indexed.BuildIndex()
		for _, f := range filters {
			want := st.baselineSelect(f)
			if got := scanned.Select(f); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, unindexed, %+v: %d rows, row baseline %d", name, f, len(got), len(want))
			}
			if got := indexed.Select(f); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, indexed, %+v: %d rows, row baseline %d", name, f, len(got), len(want))
			}
		}
		part := indexed.ShardAt(0).st
		for code, v := range part.c.Cluster.Values {
			every := part.c.Cluster.counts[code] == part.Len()
			if list := part.idx.cluster[code]; every != (list == nil) {
				t.Errorf("%s: cluster %q carried by every row = %v, posting list kept = %v", name, v, every, list != nil)
			} else if !every && len(list) != part.c.Cluster.counts[code] {
				t.Errorf("%s: cluster %q has %d rows and a list of %d", name, v, part.c.Cluster.counts[code], len(list))
			}
		}
	}
	// With its one cluster's list gone, a window-cut broad filter scans
	// the shard's columns instead of chasing every row id through it.
	cf := one.AsSet().ShardAt(0).st.compile(Filter{Cluster: "ranger", EndAfter: 200_000})
	if cf.cluster >= 0 || cf.endAfter == 0 || cf.whole != popNone {
		t.Errorf("compiled %+v: the vacuous cluster predicate survived, or the window did not", cf)
	}
}
