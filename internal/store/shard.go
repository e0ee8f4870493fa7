package store

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"supremm/internal/stats"
)

// Reader is the query surface: everything above the store layer (core,
// serve, anomaly) consumes this interface, and *ShardSet is its one
// implementation — the daemon and xdmod load one from a manifest, and
// whatever builds a *Store in memory queries it through AsSet. The
// kernels are kernel.go's, which TestShardDifferentialEquivalence
// checks against a naive row reference.
//
// Scan turns a filter into a Selection, which is then consumed as often
// as the question needs (Len, NodeHours, Values, Records, Walk): those
// depend only on the rows and their global order. The summing methods
// (Aggregate, AggregateParallelCtx, GroupBy, Selection.NodeHours) have
// one definition: a serial sum per shard, the shard sums added in shard
// order, so sums follow the split in the last ulps (N, Min and Max
// never move) — and everything that serves queries holds the same
// split, the job-end day shards of the manifest. The two aggregate
// entry points return the same bits; the Ctx one adds cancellation.
// Histogram is Values binned over stats.MinMax's range, without the
// copy.
type Reader interface {
	Len() int
	Scan(f Filter) Selection
	// Select and Values are Scan spelled for one consumer each. They
	// stay on the interface only because the frozen benchmark
	// (bench/layers.go) times them by these names.
	Select(f Filter) []int
	Values(m Metric, f Filter) []float64
	Aggregate(m Metric, f Filter) Agg
	AggregateParallelCtx(ctx context.Context, m Metric, f Filter, workers int) (Agg, error)
	GroupBy(k GroupKey, metrics []Metric, f Filter) []Group
	Histogram(ctx context.Context, m Metric, f Filter, bins int) (*stats.Histogram, error)
}

var _ Reader = (*ShardSet)(nil)

// Shard is one immutable time partition: a day's worth of job records
// in the columnar layout, the posting lists over them, and the manifest
// entry describing the file it came from. It answers every query step
// over its rows itself (compile, walkSet, the folds of memo.go). newShard
// builds it complete, and nothing is written to it after that except
// memo: incremental reload shares shard pointers across snapshot
// generations, so any other write after publication would race the
// generation still serving. Every memo slot is filled once under its own
// lock (memo.go). No Store holds c, so nothing can Add to rows a memo
// describes.
type Shard struct {
	info ShardInfo
	c    *Columns
	idx  Index
	memo [numPops]atomic.Pointer[popMemo]
}

// newShard builds a shard over c, which nothing may change from here on,
// with its posting lists — the one way a shard comes into being.
func newShard(info ShardInfo, c *Columns) *Shard {
	return &Shard{info: info, c: c, idx: newIndex(c)}
}

// pop returns the shard's memo of one population, made on first use:
// most shards are only ever asked for one of the two.
func (sh *Shard) pop(p population) *popMemo {
	slot := &sh.memo[p]
	if slot.Load() == nil {
		slot.CompareAndSwap(nil, new(popMemo))
	}
	return slot.Load()
}

// ID returns the shard's epoch-day partition key.
func (sh *Shard) ID() int64 { return sh.info.ID }

// Info returns the manifest entry the shard was loaded against.
func (sh *Shard) Info() ShardInfo { return sh.info }

// Columns exposes the shard's columnar layout, read-only — the
// incremental-reload tests use it to assert that unchanged shards are
// pointer-shared (not copied) across generations.
func (sh *Shard) Columns() *Columns { return sh.c }

// ShardSet is what queries run on: an ordered list of day-partitioned
// shards presenting one logical row space. The global row order is the
// concatenation of the shards in ascending shard-ID order, rows in
// their original order within each shard.
type ShardSet struct {
	// shards is the partition list the kernels walk.
	shards []*Shard
	// rows is the total row count across shards.
	rows  int
	stats ShardLoadStats
	// uses counts, by partUse, the partitions this set's kernel calls
	// pruned, walked and remembered.
	uses [numPartUses]atomic.Int64
	// unions holds, by GroupKey, the union of the shards' dictionaries
	// that a group-by merges through (kernel.go).
	unions [numGroupKeys]Slot[*keyUnion]
}

// PartitionUse counts how the kernel calls on one set — one served
// generation — got each partition's share of their answers.
// Remembered: the filter selected one of the shard's whole populations
// and everything the call needed of it was already in the shard's memo.
// Walked: the call evaluated a filter or folded sums over the
// partition's rows, a memo slot's first fill included (an aggregate's
// deviation pass, which always reads the rows, is not what is counted).
// Pruned: bounds or dictionaries proved no row could match.
type PartitionUse struct {
	Remembered, Walked, Pruned int64
}

// PartitionUse returns the set's counters.
func (ss *ShardSet) PartitionUse() PartitionUse {
	return PartitionUse{
		Remembered: ss.uses[partRemembered].Load(),
		Walked:     ss.uses[partWalked].Load(),
		Pruned:     ss.uses[partPruned].Load(),
	}
}

// ShardLoadStats counts how a set was assembled: Loaded shards were
// decoded from disk, Reused shards were adopted pointer-wise from the
// previous generation; the Bytes fields are their files' sizes.
type ShardLoadStats struct {
	Loaded, Reused           int
	LoadedBytes, ReusedBytes int64
}

// NewShardSet wraps in-memory columnar partitions as a shard set, in
// the given order, each part indexed as its shard is built. Each part
// must have derived state populated (appendRecord or recomputeDerived
// do this) and must not change afterwards. Disk sets come from
// LoadShardSet.
func NewShardSet(parts []*Columns) *ShardSet {
	shards := make([]*Shard, len(parts))
	for i, c := range parts {
		shards[i] = newShard(ShardInfo{ID: int64(i), Rows: c.Len(), MinEnd: c.minEnd, MaxEnd: c.maxEnd}, c)
	}
	return newShardSet(shards, ShardLoadStats{Loaded: len(parts)})
}

// AsSet wraps a finished store as a one-shard set, the way an in-memory
// store is queried: one partition, so every sum is the plain running sum
// over its rows. The set shares the store's row data — fixed at the
// length it had — and none of its mutable derived state: dictionary
// lookup maps, per-value counts, weights and bounds are rebuilt, so a
// later Add on the builder can never change an answer of the set (nor
// make a predicate look vacuous to it).
func (s *Store) AsSet() *ShardSet {
	c := s.c
	c.recomputeDerived()
	return NewShardSet([]*Columns{&c})
}

func newShardSet(shards []*Shard, stats ShardLoadStats) *ShardSet {
	ss := &ShardSet{shards: shards, stats: stats}
	for _, sh := range shards {
		ss.rows += sh.c.Len()
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
func (ss *ShardSet) Len() int { return ss.rows }

// BuildIndex does nothing: every shard is indexed when it is built. The
// method stays because the frozen benchmark (bench/layers.go) calls it.
func (ss *ShardSet) BuildIndex() {}

// Scan evaluates the filter, once, into a Selection.
func (ss *ShardSet) Scan(f Filter) Selection {
	sel := ss.selectParts(f)
	ss.tally(sel)
	return Selection{ss, sel}
}

// Select returns the global row indices passing the filter, ascending.
// Nothing in the product calls it; the frozen benchmark times it.
func (ss *ShardSet) Select(f Filter) []int { return ss.selectRows(f) }

// Values is Scan(f).Values(m), kept under this name for the frozen
// benchmark; product code holds the Selection.
func (ss *ShardSet) Values(m Metric, f Filter) []float64 { return ss.Scan(f).Values(m) }

// Aggregate computes the node-hour-weighted aggregate of metric m over
// the filtered rows: per-shard serial sums merged in shard order.
func (ss *ShardSet) Aggregate(m Metric, f Filter) Agg {
	agg, _ := ss.aggregate(nil, m, f) // a nil ctx never fails
	return agg
}

// AggregateParallelCtx is Aggregate under a context: the same bits, or
// ctx's error once ctx fires (see aggregate). workers is ignored; the
// name and signature stay because the frozen benchmark calls them.
func (ss *ShardSet) AggregateParallelCtx(ctx context.Context, m Metric, f Filter, _ int) (Agg, error) {
	return ss.aggregate(ctx, m, f)
}

// GroupBy computes node-hour-weighted means per group over the
// filtered rows, sorted by descending node-hours.
func (ss *ShardSet) GroupBy(k GroupKey, metrics []Metric, f Filter) []Group {
	return ss.groupRows(k, metrics, f)
}

// RunChunks executes fn(c) for every chunk index on up to workers
// goroutines, and then(c) on the calling goroutine in ascending c once
// fn has returned for c, so a caller can fold each chunk's slot in
// order and drop it. A worker claims a chunk only while fewer than
// 2*workers claimed chunks wait for their then. With workers <= 1 it
// runs fn(c) and then(c) inline.
func RunChunks(chunks, workers int, fn, then func(c int)) {
	if workers = min(workers, chunks); workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
			then(c)
		}
		return
	}
	var (
		mu     sync.Mutex
		turn   = sync.NewCond(&mu)
		next   int // the next chunk to claim
		folded int // chunks whose then has returned
		done   = make([]bool, chunks)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			for next < chunks {
				if next-folded >= 2*workers {
					turn.Wait()
					continue
				}
				c := next
				next++
				mu.Unlock()
				fn(c)
				mu.Lock()
				done[c] = true
				turn.Broadcast()
			}
			mu.Unlock()
		}()
	}
	mu.Lock()
	for f := 0; f < chunks; f++ {
		for !done[f] {
			turn.Wait()
		}
		mu.Unlock()
		then(f)
		mu.Lock()
		folded++
		turn.Broadcast()
	}
	mu.Unlock()
	wg.Wait()
}
