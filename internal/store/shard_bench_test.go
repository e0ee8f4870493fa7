package store

import "testing"

// BenchmarkShardPrune measures what whole-shard time pruning buys: a
// one-day window query against a ~116-day sharded history touches one
// shard's rows, while one shard holding everything must scan (or
// index-probe) the full corpus. `make bench-store` runs it by name.
func BenchmarkShardPrune(b *testing.B) {
	st := multiDayStore(100_000)
	one := st.AsSet()
	one.BuildIndex()
	_, cols := st.partitionByEndDay()
	ss := NewShardSet(cols)
	ss.BuildIndex()
	mid := ss.ShardAt(ss.NumShards() / 2).Info()
	f := Filter{Cluster: "ranger", EndAfter: mid.MinEnd, EndBefore: mid.MaxEnd + 1}
	if _, pruned := selectParts(ss.parts, f); pruned != ss.NumShards()-1 {
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
