package store

import (
	"context"
	"testing"

	"supremm/internal/stats"
)

// BenchmarkShardPrune measures what whole-shard time pruning buys: a
// one-day window query against a ~116-day sharded history touches one
// shard's rows, while one shard holding everything must scan (or
// index-probe) the full corpus. `make bench-store` runs it by name.
func BenchmarkShardPrune(b *testing.B) {
	st := multiDayStore(100_000)
	one := st.AsSet()
	_, cols := st.partitionByEndDay()
	ss := NewShardSet(cols)
	mid := ss.ShardAt(ss.NumShards() / 2).Info()
	f := Filter{Cluster: "ranger", EndAfter: mid.MinEnd, EndBefore: mid.MaxEnd + 1}
	if pruned := PrunedParts(ss, f); pruned != ss.NumShards()-1 {
		b.Fatalf("window pruned %d of %d shards, want all but one", pruned, ss.NumShards())
	}

	b.Run("sharded-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.Aggregate(MetricCPUIdle, f)
		}
	})
	b.Run("one-shard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = one.Aggregate(MetricCPUIdle, f)
		}
	})
}

// BenchmarkShardMemo prints both costs of a broad answer over the
// benchmark's history shape (200 000 jobs, 120 day shards, the §4.1
// filter): first-touch, on a set nothing has queried — every shard
// walked, as every call was before shards remembered, plus the memo's
// fill — and remembered, the same call again. `make bench-store` runs
// it by name.
func BenchmarkShardMemo(b *testing.B) {
	cols := historyParts(b, 200_000, 120)
	broad := Filter{Cluster: "ranger", MinSamples: 1}
	var sink int
	for _, q := range []struct {
		name string
		ask  func(ss *ShardSet)
	}{
		{"aggregate", func(ss *ShardSet) { sink += ss.Aggregate(MetricCPUIdle, broad).N }},
		{"groupby-user", func(ss *ShardSet) { sink += len(ss.GroupBy(ByUser, KeyMetrics(), broad)) }},
		{"values", func(ss *ShardSet) { sink += len(ss.Scan(broad).Values(MetricFlops)) }},
	} {
		b.Run(q.name+"/first-touch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ss := NewShardSet(cols)
				b.StartTimer()
				q.ask(ss)
			}
		})
		b.Run(q.name+"/remembered", func(b *testing.B) {
			ss := NewShardSet(cols)
			q.ask(ss)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.ask(ss)
			}
		})
	}
	_ = sink
}

// The benchmarks below store each result here, so that no call they
// time can be dropped as dead code.
var (
	histogramSink *stats.Histogram
	groupsSink    []Group
	unionSink     *keyUnion
)

// BenchmarkDistribution bins one metric of the benchmark's history
// shape (200 000 jobs, 120 day shards) into 20 bins, the way
// /api/v1/distribution does: the histogram kernel over the §4.1
// population (bounds remembered) and over one user (every partition
// walked), beside the copy it replaces — Values, MinMax, NewHistogram.
// `make bench-store` runs it by name; B/op is what each way allocates.
func BenchmarkDistribution(b *testing.B) {
	ss := NewShardSet(historyParts(b, 200_000, 120))
	broad := Filter{Cluster: "ranger", MinSamples: 1}
	user := Filter{Cluster: "ranger", MinSamples: 1, User: ss.ShardAt(0).c.KeyColumn(ByUser).Values[0]}
	for _, q := range []struct {
		name string
		f    Filter
	}{{"broad", broad}, {"user", user}} {
		b.Run(q.name+"/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := ss.Histogram(context.Background(), MetricFlops, q.f, 20)
				if err != nil {
					b.Fatal(err)
				}
				histogramSink = h
			}
		})
		b.Run(q.name+"/copy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vals := ss.Scan(q.f).Values(MetricFlops)
				lo, hi := stats.MinMax(vals)
				histogramSink = stats.NewHistogram(vals, lo, hi, 20)
			}
		})
	}
}

// BenchmarkGroupByUser is the user group-by of the same history, the
// §4.1 population, every partition's sums remembered: what is left is
// the merge of each shard's codes into the keys' totals through the
// set's dictionary union. union is the build a new generation pays on its
// first group-by by the key.
// `make bench-store` runs it by name.
func BenchmarkGroupByUser(b *testing.B) {
	cols := historyParts(b, 200_000, 120)
	broad := Filter{Cluster: "ranger", MinSamples: 1}
	ss := NewShardSet(cols)
	ss.GroupBy(ByUser, KeyMetrics(), broad)
	b.Run("remembered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groupsSink = ss.GroupBy(ByUser, KeyMetrics(), broad)
		}
	})
	b.Run("union", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := NewShardSet(cols)
			b.StartTimer()
			unionSink = fresh.union(ByUser)
		}
	})
}
