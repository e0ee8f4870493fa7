package store

import "testing"

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
	if pruned := prunedParts(ss, f); pruned != ss.NumShards()-1 {
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
