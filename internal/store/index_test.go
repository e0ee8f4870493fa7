package store

import (
	"fmt"
	"math"
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
	s := testStore(5000)
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
	got := s.Select(Filter{User: "newuser"})
	if len(got) != 1 {
		t.Fatalf("new row not visible after Add: got %d rows", len(got))
	}
}

// TestAggregateParallelMatchesSequential checks the chunked parallel
// aggregation against the reference Aggregate: counts, extrema and
// node-hours exactly, means to float tolerance (summation order
// differs), and bit-identical results across worker counts.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	s := testStore(20000)
	s.BuildIndex()
	filters := []Filter{{}, {Cluster: "ranger"}, {User: "u042"}, {User: "nobody"}}
	for _, f := range filters {
		for _, m := range []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops} {
			want := s.Aggregate(m, f)
			got := aggParallel(s, m, f, 8)
			if got.N != want.N {
				t.Fatalf("%v %s: N=%d want %d", f, m, got.N, want.N)
			}
			if want.N == 0 {
				continue
			}
			if got.Min != want.Min || got.Max != want.Max {
				t.Errorf("%v %s: min/max %v/%v want %v/%v", f, m, got.Min, got.Max, want.Min, want.Max)
			}
			for _, pair := range [][2]float64{
				{got.Mean, want.Mean}, {got.StdDev, want.StdDev},
				{got.NodeHours, want.NodeHours}, {got.UnweightedMean, want.UnweightedMean},
			} {
				if !closeEnough(pair[0], pair[1]) {
					t.Errorf("%v %s: parallel %v vs sequential %v", f, m, pair[0], pair[1])
				}
			}
			// Worker-count independence: the chunk merge order is fixed,
			// so any worker count must produce identical bits.
			for _, w := range []int{1, 2, 3, 16} {
				again := aggParallel(s, m, f, w)
				if again != got {
					t.Fatalf("%v %s: workers=%d changed the result: %+v vs %+v", f, m, w, again, got)
				}
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func BenchmarkStoreSelect(b *testing.B) {
	s := testStore(100_000)
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
