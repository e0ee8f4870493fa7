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
	if got := s.selectSet(Filter{User: "newuser"}).len(); got != 1 {
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
