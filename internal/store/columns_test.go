package store_test

import (
	"context"
	"math"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// The differential tests hold every Reader method of a *ShardSet and
// every Selection consumer to internal/reference, the module's one naive
// oracle: plain loops over the same rows, cut into the same partitions,
// sharing no code with the kernels. The engine must be bit-identical to
// it (reference.Same); the speedup floor requires the columnar kernel to
// beat it.

// storeOf adds rows to a new store, in order.
func storeOf(rows []store.JobRecord) *store.Store {
	st := store.New()
	for _, r := range rows {
		st.Add(r)
	}
	return st
}

// rowsOf reads a store's rows back, in its order.
func rowsOf(st *store.Store) []store.JobRecord {
	rows := make([]store.JobRecord, st.Len())
	for i := range rows {
		rows[i] = st.Record(i)
	}
	return rows
}

// cut splits rows at the given ascending interior positions into the
// reference's partitions — any split, not just the day splits production
// produces; a repeated position makes an empty partition.
func cut(rows []store.JobRecord, cuts []int) reference.Parts {
	parts, lo := reference.Parts{}, 0
	for _, c := range cuts {
		parts, lo = append(parts, rows[lo:c]), c
	}
	return append(parts, rows[lo:])
}

// setOf is the engine's shard set over the same partitions as parts.
func setOf(parts reference.Parts) *store.ShardSet {
	cols := make([]*store.Columns, len(parts))
	for i, p := range parts {
		cols[i] = storeOf(p).Columns()
	}
	return store.NewShardSet(cols)
}

// aggParallel is AggregateParallelCtx on a context that never fires.
func aggParallel(r store.Reader, m store.Metric, f store.Filter, workers int) store.Agg {
	agg, err := r.AggregateParallelCtx(context.Background(), m, f, workers)
	if err != nil {
		panic(err)
	}
	return agg
}

// histogram is Reader.Histogram on a context that never fires.
func histogram(r store.Reader, m store.Metric, f store.Filter, bins int) *stats.Histogram {
	h, err := r.Histogram(context.Background(), m, f, bins)
	if err != nil {
		panic(err)
	}
	return h
}

// equivRows exercise the tricky aggregation inputs: NaN metric values,
// zero-sample jobs, zero-node-hour jobs (end == start), negative values
// and negative zeros, and enough distinct strings to stress the
// dictionaries.
func equivRows(n int) []store.JobRecord {
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm", "vasp"}
	rows := make([]store.JobRecord, n)
	for i := range rows {
		r := store.JobRecord{
			JobID:   int64(1000 + i),
			Cluster: []string{"ranger", "lonestar4"}[i%2],
			User:    "u" + string(rune('a'+i%23)),
			App:     apps[i%len(apps)],
			Science: []string{"Chemistry", "Physics", "Biology", ""}[i%4],
			Nodes:   i % 64, // includes zero-node rows
			Submit:  int64(50 * i),
			Start:   int64(50*i + 30),
			End:     int64(50*i+30) + 600*int64(i%7), // i%7==0 → zero wallclock
			Status:  []string{"completed", "failed"}[i%5/4],
			Samples: i % 5, // includes zero-sample rows
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 31)
		r.FlopsGF = 0.3 * float64(i%13)
		r.ReadMB = -1.5 * float64(i%9) // negative values
		if i%97 == 0 {
			r.FlopsGF = math.NaN() // NaN metric values
		}
		if i%89 == 0 {
			r.MemUsedGB = math.Inf(1)
		}
		rows[i] = r
	}
	return rows
}

var equivFilters = []store.Filter{
	{},                                  // all rows, vacuous
	{Cluster: "ranger"},                 // posting-list selective
	{Cluster: "ranger", MinSamples: 1},  // broad-scan shape
	{User: "ub", App: "amber"},          // narrow intersection
	{Science: "Physics", MinSamples: 3}, // scan with residual filter
	{Status: "failed"},                  // low-count dictionary value
	{EndAfter: 5000, EndBefore: 200000}, // time window
	{Cluster: "nonesuch"},               // impossible value
	{App: "hpl", EndBefore: 1},          // empty result via window
	{MinSamples: 10},                    // empty result via samples
	{Cluster: "ranger", User: "uc", App: "namd", Science: "Chemistry", Status: "completed", MinSamples: 1, EndAfter: 1, EndBefore: 1 << 40}, // every predicate at once
}

// TestColumnarAggregateEquivalence proves the columnar kernel is
// bit-identical to the reference on a one-shard set — through both
// entry points, for every worker count, including NaN metric values,
// zero-sample jobs and zero-node-hour jobs. The reference holds the rows
// as one partition: one shard's sum is the plain running sum.
func TestColumnarAggregateEquivalence(t *testing.T) {
	rows := equivRows(10_000)
	ss, ref := storeOf(rows).AsSet(), reference.Parts{rows}
	for _, m := range []store.Metric{store.MetricFlops, store.MetricMemUsed, store.MetricRead, store.MetricCPUIdle} {
		for fi, f := range equivFilters {
			want := ref.Aggregate(m, f)
			if got := ss.Aggregate(m, f); !reference.Same(got, want) {
				t.Errorf("filter#%d %s: Aggregate %+v != reference %+v", fi, m, got, want)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if got := aggParallel(ss, m, f, workers); !reference.Same(got, want) {
					t.Errorf("filter#%d %s workers=%d: AggregateParallelCtx %+v != reference %+v", fi, m, workers, got, want)
				}
			}
		}
	}
}

// TestColumnarSelectEquivalence pins Select (and therefore every
// kernel's row enumeration, through the posting lists or a scan) to the
// reference's row-by-row match.
func TestColumnarSelectEquivalence(t *testing.T) {
	rows := equivRows(5_000)
	ss, ref := storeOf(rows).AsSet(), reference.Parts{rows}
	for fi, f := range equivFilters {
		if got, want := ss.Select(f), ref.Select(f); !reference.Same(got, want) {
			t.Errorf("filter#%d Select: %d rows differ from the reference's %d", fi, len(got), len(want))
		}
	}
}

// TestSelectIndexedMatchesScan holds Select to the reference where the
// posting lists decide it: selective values of indexed columns, their
// intersections, a value no row carries, an unindexed column, and — on
// one shard holding a single cluster (a realm's data directory) and one
// holding two — a cluster every row carries, whose list is never built
// (TestIndexSkipsValueEveryRowCarries), so the other predicates decide,
// and "every row has it" must never become "no row has it".
func TestSelectIndexedMatchesScan(t *testing.T) {
	spread := rowsOf(store.SpreadStore(5000))
	filters := []store.Filter{
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
	check := func(name string, rows []store.JobRecord, filters []store.Filter) {
		ss, ref := storeOf(rows).AsSet(), reference.Parts{rows}
		for _, f := range filters {
			if got, want := ss.Select(f), ref.Select(f); !reference.Same(got, want) {
				t.Errorf("%s, %+v: %d rows, reference %d", name, f, len(got), len(want))
			}
		}
	}
	check("spread", spread, filters)

	two := rowsOf(store.SpreadStore(600))
	one := append([]store.JobRecord(nil), two...)
	for i := range one {
		one[i].Cluster = "ranger"
	}
	carried := []store.Filter{
		{Cluster: "ranger"}, {Cluster: "lonestar4"}, {Cluster: "nonesuch"},
		{Cluster: "ranger", User: "u042"}, {Cluster: "ranger", App: "app07", MinSamples: 1},
		{Cluster: "ranger", Status: "completed"}, // status: every row, unindexed column
		{Cluster: "ranger", EndAfter: 200_000},   // the window cuts: what an edge day shard sees
		{Cluster: "ranger", MinSamples: 2},
	}
	check("one cluster", one, carried)
	check("two clusters", two, carried)
}

// TestAggregateParallelWorkerInvariance re-pins the daemon's core
// determinism property: AggregateParallelCtx ignores its worker count,
// so no value of it moves a bit.
func TestAggregateParallelWorkerInvariance(t *testing.T) {
	ss := setOf(cut(equivRows(20_000), []int{1, 900, 4100, 9000, 9001, 15_000, 19_990}))
	for _, f := range equivFilters {
		want := ss.Aggregate(store.MetricFlops, f)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			if got := aggParallel(ss, store.MetricFlops, f, workers); !reference.Same(got, want) {
				t.Fatalf("workers=%d: %+v != Aggregate %+v (filter %+v)", workers, got, want, f)
			}
		}
	}
}

// TestAggregateParallelMatchesSequential holds the two aggregate entry
// points to each other on a one-shard set: one kernel behind both, so
// the same bits for any worker count.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	s := store.SpreadStore(20000).AsSet()
	filters := []store.Filter{{}, {Cluster: "ranger"}, {User: "u042"}, {User: "nobody"}}
	for _, f := range filters {
		for _, m := range []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops} {
			want := s.Aggregate(m, f)
			for _, w := range []int{1, 2, 3, 16} {
				if got := aggParallel(s, m, f, w); !reference.Same(got, want) {
					t.Fatalf("%v %s: workers=%d: %+v, sequential %+v", f, m, w, got, want)
				}
			}
		}
	}
}

// TestCodecDerivedState proves a decoded store answers queries exactly
// like the store it was encoded from (the derived dictionaries, weight
// cache and vacuity bounds are rebuilt correctly).
func TestCodecDerivedState(t *testing.T) {
	st := storeOf(equivRows(3000))
	c, err := store.DecodeColumns(store.EncodeColumns(st.Columns()))
	if err != nil {
		t.Fatal(err)
	}
	// The original side keeps the derived state Add maintained (AsSet
	// would rebuild it the decoder's way and compare like with like).
	orig, decoded := store.NewShardSet([]*store.Columns{st.Columns()}), store.NewShardSet([]*store.Columns{c})
	for fi, f := range equivFilters {
		if got, want := decoded.Aggregate(store.MetricFlops, f), orig.Aggregate(store.MetricFlops, f); !reference.Same(got, want) {
			t.Errorf("filter#%d: decoded store aggregate %+v != original %+v", fi, got, want)
		}
		if got, want := decoded.Select(f), orig.Select(f); !reference.Same(got, want) {
			t.Errorf("filter#%d: decoded store selects %d rows, original %d", fi, len(got), len(want))
		}
	}
	if got, want := decoded.Scan(store.Filter{}).NodeHours(), orig.Scan(store.Filter{}).NodeHours(); !reference.Same(got, want) {
		t.Errorf("NodeHours %v != %v", got, want)
	}
}

// TestColumnarSpeedupFloor is the executable form of the acceptance
// criterion: the columnar broad-scan kernel (vacuous-filter shape,
// serve's store-broad benchmark) must be at least 3x faster than the
// reference on a 100k-job store. The criterion was 2x against a row
// path that read the columns; the reference reads materialized records,
// about 1.5x slower, so the floor rose with it. Typical measurements
// are above 20x, so scheduler noise cannot flake it.
func TestColumnarSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row timing comparison in -short mode")
	}
	st := store.FloorStore(100_000)
	ss, ref := st.AsSet(), reference.Parts{rowsOf(st)}
	broad := store.Filter{Cluster: "ranger", MinSamples: 1}
	if got, want := ss.Aggregate(store.MetricFlops, broad), ref.Aggregate(store.MetricFlops, broad); !reference.Same(got, want) {
		t.Fatalf("columnar %+v != reference %+v", got, want)
	}
	naive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ref.Aggregate(store.MetricFlops, broad)
		}
	})
	columnar := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ss.Aggregate(store.MetricFlops, broad)
		}
	})
	ratio := float64(naive.NsPerOp()) / float64(columnar.NsPerOp())
	t.Logf("reference %v/op, columnar %v/op, speedup %.1fx", naive.NsPerOp(), columnar.NsPerOp(), ratio)
	if ratio < 3 {
		t.Errorf("columnar broad-scan aggregate only %.1fx faster than the reference, want >= 3x", ratio)
	}
}

// BenchmarkAggregateColumnar is the committed columnar-kernel benchmark
// (make bench-store): the broad vacuous-filter sweep and the selective
// posting-list path through the aggregate, against the reference, plus
// the group-by and values kernels on the same two filters — the
// one-shard figures, i.e. the one-partition case of the kernels.
func BenchmarkAggregateColumnar(b *testing.B) {
	st := store.FloorStore(100_000)
	ss, ref := st.AsSet(), reference.Parts{rowsOf(st)}
	broad := store.Filter{Cluster: "ranger", MinSamples: 1}
	selective := store.Filter{Cluster: "ranger", User: "u042", MinSamples: 1}
	metrics := []store.Metric{store.MetricFlops, store.MetricCPUIdle}
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"broad-columnar", func() { ss.Aggregate(store.MetricFlops, broad) }},
		{"broad-reference", func() { ref.Aggregate(store.MetricFlops, broad) }},
		{"selective-columnar", func() { ss.Aggregate(store.MetricFlops, selective) }},
		{"broad-groupby-user", func() { ss.GroupBy(store.ByUser, metrics, broad) }},
		{"selective-groupby-app", func() { ss.GroupBy(store.ByApp, metrics, selective) }},
		{"broad-values", func() { ss.Scan(broad).Values(store.MetricFlops) }},
		{"selective-values", func() { ss.Scan(selective).Values(store.MetricFlops) }},
		{"selective-reference", func() { ref.Aggregate(store.MetricFlops, selective) }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.run()
			}
		})
	}
}
