package store

import (
	"context"
	"runtime"
	"sort"
)

// Reader is the query surface shared by the monolithic *Store and the
// time-partitioned *ShardSet. Everything above the store layer (core,
// serve, anomaly) consumes this interface. Both types run the one
// kernel family of kernel.go, which TestShardDifferentialEquivalence
// checks against a naive row reference.
//
// The row-returning methods (Len, Record, Records, Select, Scan,
// Values) depend only on the rows and their global order. The summing
// methods (Aggregate, AggregateParallelCtx, GroupBy, TotalNodeHours)
// have one definition: a serial sum per partition, the partition sums
// added in partition order. A *Store is one partition; a *ShardSet has
// one per shard, so its sums follow its split in the last ulps (N, Min
// and Max never move) — and everything that serves queries holds the
// same split, the job-end day shards of the manifest. The two aggregate
// entry points return the same bits; the Ctx one adds cancellation and a
// worker count that only schedules.
type Reader interface {
	Len() int
	Record(i int) JobRecord
	Records(f Filter) []JobRecord
	Select(f Filter) []int
	Scan(f Filter) Selection
	Aggregate(m Metric, f Filter) Agg
	AggregateParallelCtx(ctx context.Context, m Metric, f Filter, workers int) (Agg, error)
	GroupBy(k GroupKey, metrics []Metric, f Filter) []Group
	Values(m Metric, f Filter) (vals, weights []float64)
	TotalNodeHours(f Filter) float64
	BuildIndex()
	HasIndex() bool
}

var (
	_ Reader = (*Store)(nil)
	_ Reader = (*ShardSet)(nil)
)

// Shard is one immutable time partition: a day's worth of job records
// in the columnar layout, plus the manifest entry describing the file
// it came from. Once loaded (or adopted from a previous generation) a
// shard is never mutated — incremental reload shares shard pointers
// across snapshot generations, so any write after publication would be
// a data race with the generation still serving.
type Shard struct {
	info ShardInfo
	st   *Store
}

// ID returns the shard's epoch-day partition key.
func (sh *Shard) ID() int64 { return sh.info.ID }

// Info returns the manifest entry the shard was loaded against.
func (sh *Shard) Info() ShardInfo { return sh.info }

// Columns exposes the shard's columnar layout, read-only — the
// incremental-reload tests use it to assert that unchanged shards are
// pointer-shared (not copied) across generations.
func (sh *Shard) Columns() *Columns { return &sh.st.c }

// ShardSet is the sharded counterpart of Store: an ordered list of
// day-partitioned shards presenting one logical row space. The global
// row order is the concatenation of the shards in ascending shard-ID
// order, rows in their original order within each shard — exactly the
// order cmd/ingest's ReorderByEndDay gives the monolithic outputs, so
// the sharded and monolithic load paths answer byte-identically.
type ShardSet struct {
	shards []*Shard
	// parts[i] is shards[i]'s rows: the partition list the kernels walk.
	parts []*Store
	// starts[i] is the global row offset of shard i; starts[len] = Len().
	starts []int
	// built marks that BuildIndex ran over the set (per-shard indexes
	// may predate it on shards reused from an earlier generation).
	built bool
	stats ShardLoadStats
}

// ShardLoadStats counts how a set was assembled: Loaded shards were
// decoded from disk, Reused shards were adopted pointer-wise from the
// previous generation.
type ShardLoadStats struct {
	Loaded int
	Reused int
}

// NewShardSet wraps in-memory columnar partitions as a shard set, in
// the given order. Each part must have derived state populated
// (appendRecord or recomputeDerived do this). Intended for tests; disk
// sets come from LoadShardSet.
func NewShardSet(parts []*Columns) *ShardSet {
	shards := make([]*Shard, len(parts))
	for i, c := range parts {
		shards[i] = &Shard{
			info: ShardInfo{ID: int64(i), Rows: c.Len(), MinEnd: c.minEnd, MaxEnd: c.maxEnd},
			st:   FromColumns(c),
		}
	}
	return newShardSet(shards, ShardLoadStats{Loaded: len(parts)})
}

func newShardSet(shards []*Shard, stats ShardLoadStats) *ShardSet {
	ss := &ShardSet{shards: shards, parts: make([]*Store, len(shards)), starts: make([]int, len(shards)+1), stats: stats}
	for i, sh := range shards {
		ss.parts[i] = sh.st
		ss.starts[i+1] = ss.starts[i] + sh.st.Len()
	}
	return ss
}

// NumShards returns how many partitions back the set.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// ShardAt returns the i'th shard in global order.
func (ss *ShardSet) ShardAt(i int) *Shard { return ss.shards[i] }

// LoadStats reports how the set was assembled (decoded vs reused).
func (ss *ShardSet) LoadStats() ShardLoadStats { return ss.stats }

// shardByID finds a shard by partition key; shards are kept in
// ascending ID order.
func (ss *ShardSet) shardByID(id int64) *Shard {
	i := sort.Search(len(ss.shards), func(k int) bool { return ss.shards[k].info.ID >= id })
	if i < len(ss.shards) && ss.shards[i].info.ID == id {
		return ss.shards[i]
	}
	return nil
}

// Len returns the total row count across shards.
func (ss *ShardSet) Len() int { return ss.starts[len(ss.shards)] }

// Record materializes global row i.
func (ss *ShardSet) Record(i int) JobRecord {
	si := sort.Search(len(ss.shards), func(k int) bool { return ss.starts[k+1] > i })
	return ss.shards[si].st.Record(i - ss.starts[si])
}

// BuildIndex builds each shard's posting lists, in parallel. Shards
// adopted from a previous generation already carry an index and are
// skipped — rebuilding would race the old generation's readers, and the
// postings are a pure function of the shard's immutable rows anyway.
// Must not run concurrently with queries against this set (the serve
// layer indexes before publishing a snapshot).
func (ss *ShardSet) BuildIndex() {
	runChunks(nil, len(ss.shards), runtime.GOMAXPROCS(0), func(i int) {
		if !ss.shards[i].st.HasIndex() {
			ss.shards[i].st.BuildIndex()
		}
	})
	ss.built = true
}

// HasIndex reports whether BuildIndex ran over the set.
func (ss *ShardSet) HasIndex() bool { return ss.built }

// Select returns the global row indices passing the filter, ascending.
func (ss *ShardSet) Select(f Filter) []int { return selectRows(ss.parts, f) }

// Records materializes the records passing the filter, global order.
func (ss *ShardSet) Records(f Filter) []JobRecord { return selectRecords(ss.parts, f) }

// Scan leaves the filter's selection in place for an ordered walk.
func (ss *ShardSet) Scan(f Filter) Selection { return scanParts(ss.parts, f) }

// Values extracts metric m and node-hour weights over the filtered
// rows, global order.
func (ss *ShardSet) Values(m Metric, f Filter) (vals, weights []float64) {
	return selectValues(ss.parts, m, f)
}

// TotalNodeHours sums weights over the filtered rows.
func (ss *ShardSet) TotalNodeHours(f Filter) float64 { return totalNodeHours(ss.parts, f) }

// Aggregate computes the node-hour-weighted aggregate of metric m over
// the filtered rows: per-shard serial sums merged in shard order.
func (ss *ShardSet) Aggregate(m Metric, f Filter) Agg {
	agg, _ := aggregateParts(nil, ss.parts, m, f, 1) // a nil ctx never fails
	return agg
}

// AggregateParallelCtx is Aggregate with the shards fanned out over up
// to workers goroutines, under a context: the same bits for any worker
// count, or ctx's error once ctx fires (see aggregateParts).
func (ss *ShardSet) AggregateParallelCtx(ctx context.Context, m Metric, f Filter, workers int) (Agg, error) {
	return aggregateParts(ctx, ss.parts, m, f, workers)
}

// GroupBy computes node-hour-weighted means per group over the
// filtered rows, sorted by descending node-hours.
func (ss *ShardSet) GroupBy(k GroupKey, metrics []Metric, f Filter) []Group {
	return groupRows(ss.parts, k, metrics, f)
}
