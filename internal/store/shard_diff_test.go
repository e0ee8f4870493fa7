package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// splitParts cuts st's rows at the given strictly-ascending interior
// positions into columnar partitions — the in-memory analogue of an
// arbitrary day partitioning, so equivalence can be checked for any
// split, not just the day splits production produces.
func splitParts(st *Store, cuts []int) []*Columns {
	bounds := append(append([]int{0}, cuts...), st.Len())
	parts := make([]*Columns, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		p := New()
		for r := bounds[i]; r < bounds[i+1]; r++ {
			p.Add(st.Record(r))
		}
		parts = append(parts, p.Columns())
	}
	return parts
}

// randomCuts draws n distinct interior split points.
func randomCuts(rng *rand.Rand, rows, n int) []int {
	set := map[int]bool{}
	for len(set) < n {
		set[1+rng.Intn(rows-1)] = true
	}
	cuts := make([]int, 0, n)
	for c := range set {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

func groupsBitsEqual(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if a[i].Key != b[i].Key || a[i].N != b[i].N || !feq(a[i].NodeHours, b[i].NodeHours) {
			return false
		}
		if len(a[i].Mean) != len(b[i].Mean) {
			return false
		}
		for m, av := range a[i].Mean {
			bv, ok := b[i].Mean[m]
			if !ok || !feq(av, bv) {
				return false
			}
		}
	}
	return true
}

func floatsBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRecord is ==, except that a NaN metric value (the fixtures plant
// them) equals itself: metrics compare by their bits.
func sameRecord(a, b JobRecord) bool {
	for _, m := range AllMetrics() {
		if math.Float64bits(a.Value(m)) != math.Float64bits(b.Value(m)) {
			return false
		}
	}
	return a.JobID == b.JobID && a.Cluster == b.Cluster && a.User == b.User && a.App == b.App &&
		a.Science == b.Science && a.Nodes == b.Nodes && a.Submit == b.Submit && a.Start == b.Start &&
		a.End == b.End && a.Status == b.Status && a.Samples == b.Samples
}

func init() {
	if n := reflect.TypeOf(JobRecord{}).NumField(); n != 11+NumMetrics {
		panic(fmt.Sprintf("JobRecord has %d fields: teach sameRecord the new one", n))
	}
}

// checkAgainstBaseline asserts that r answers every Reader query method
// and every Selection consumer bit-identically to the naive row
// reference computed over ref, which holds the same rows in the same
// global order, cut where r is cut: Select, Scan's Records, Walk and
// Values (which no cut can move), its NodeHours, Aggregate through both
// entry points and GroupBy over all five keys plus an out-of-range one
// (whose sums follow the cuts).
func checkAgainstBaseline(t *testing.T, label string, r Reader, ref *Store, cuts []int, metrics []Metric) {
	t.Helper()
	checkFilters(t, label, r, ref, cuts, metrics, equivFilters, false)
}

// checkFilters is checkAgainstBaseline over a given filter list.
// groupFirst asks each filter's group-bys before its selection and
// aggregates, so that on a set nothing has queried yet a different
// kernel is the one whose call fills the shards' memo.
func checkFilters(t *testing.T, label string, r Reader, ref *Store, cuts []int, metrics []Metric, filters []Filter, groupFirst bool) {
	t.Helper()
	keys := []GroupKey{ByUser, ByApp, ByScience, ByCluster, ByStatus, GroupKey(99)}
	for fi, f := range filters {
		fail := func(what string) {
			t.Helper()
			t.Fatalf("%s, filter %d %+v: %s diverges from the row baseline", label, fi, f, what)
		}
		groups := func() {
			for _, k := range keys {
				got := r.GroupBy(k, metrics[:2], f)
				if got == nil || !groupsBitsEqual(got, ref.baselineGroupBy(k, metrics[:2], f, cuts...)) {
					fail(fmt.Sprintf("GroupBy key %d", k))
				}
			}
			// One metric, and the same one twice: a request is assembled
			// from per-metric slots.
			for _, ms := range [][]Metric{metrics[2:3], {metrics[0], metrics[0]}} {
				if got := r.GroupBy(ByUser, ms, f); !groupsBitsEqual(got, ref.baselineGroupBy(ByUser, ms, f, cuts...)) {
					fail(fmt.Sprintf("GroupBy user %v", ms))
				}
			}
		}
		if groupFirst {
			groups()
		}
		wantSel := ref.baselineSelect(f)
		gotSel := r.Select(f)
		if len(gotSel) != len(wantSel) || (gotSel == nil) != (wantSel == nil) {
			fail("Select length")
		}
		for i := range gotSel {
			if gotSel[i] != wantSel[i] {
				fail("Select")
			}
		}
		wantRecs := ref.baselineRecords(f)
		scan := r.Scan(f)
		gotRecs := scan.Records()
		if len(gotRecs) != len(wantRecs) || gotRecs == nil {
			fail("Records length")
		}
		for i := range gotRecs {
			if !sameRecord(gotRecs[i], wantRecs[i]) {
				fail("Records")
			}
		}
		if math.Float64bits(scan.NodeHours()) != math.Float64bits(ref.baselineTotalNodeHours(f, cuts...)) {
			fail("NodeHours")
		}
		// The row walk visits exactly the baseline's rows, in its order,
		// reading the same values in place.
		k := 0
		if scan.Len() != len(wantRecs) {
			fail("Scan length")
		}
		scan.Walk(func(c *Columns, rows Rows) {
			if rows.Len() == 0 {
				fail("Walk visited a partition with no selected row")
			}
			for j := 0; j < rows.Len(); j++ {
				i, want := rows.At(j), wantRecs[k]
				if c.JobID[i] != want.JobID || math.Float64bits(c.NodeHours()[i]) != math.Float64bits(want.NodeHours()) ||
					math.Float64bits(c.Metric(metrics[0])[i]) != math.Float64bits(want.Value(metrics[0])) {
					fail(fmt.Sprintf("Walk row %d", k))
				}
				k++
			}
		})
		if k != len(wantRecs) {
			fail("Walk row count")
		}
		gw := selWeights(scan)
		for _, m := range metrics {
			want := ref.baselineAggregate(m, f, cuts...)
			if got := r.Aggregate(m, f); !aggBitsEqual(got, want) {
				fail("Aggregate " + string(m))
			}
			// One kernel behind both entry points: the worker count only
			// decides who sums which partition.
			for _, w := range []int{1, 2, 7} {
				if got := aggParallel(r, m, f, w); !aggBitsEqual(got, want) {
					fail(fmt.Sprintf("AggregateParallelCtx %s workers=%d", m, w))
				}
			}
			wv, ww := ref.baselineValues(m, f)
			gv := scan.Values(m)
			if !floatsBitsEqual(gv, wv) || !floatsBitsEqual(gw, ww) || (gv == nil) != (wv == nil) {
				fail("Values " + string(m))
			}
			if rv := r.Values(m, f); !floatsBitsEqual(rv, wv) || (rv == nil) != (wv == nil) {
				fail("Reader.Values " + string(m))
			}
		}
		if !groupFirst {
			groups()
		}
	}
}

// checkColdWarmFresh asks every query three times — of a set nothing
// has queried (each shard's memo fills as the queries arrive), of the
// same set again (every whole population now remembered), and of a
// second fresh set over the same columns with the filters in reverse and
// the group-bys first (the memo fills in another order, from other
// kernels) — and holds all three to the row baseline: what a shard
// remembers is what a walk computes, whoever computed it first.
func checkColdWarmFresh(t *testing.T, label string, mk func() *ShardSet, ref *Store, cuts []int, metrics []Metric, filters []Filter) {
	t.Helper()
	ss := mk()
	checkFilters(t, label+", cold", ss, ref, cuts, metrics, filters, false)
	cold := ss.PartitionUse()
	checkFilters(t, label+", warm", ss, ref, cuts, metrics, filters, false)
	// The same calls again sort every partition the same way, except
	// that a population's first touch counted as a walk.
	both := ss.PartitionUse()
	if both.Pruned != 2*cold.Pruned || both.Remembered+both.Walked != 2*(cold.Remembered+cold.Walked) ||
		both.Remembered-cold.Remembered < cold.Remembered {
		t.Errorf("%s: partition use after the cold pass %+v, after the warm pass too %+v", label, cold, both)
	}
	rev := make([]Filter, len(filters))
	for i, f := range filters {
		rev[len(rev)-1-i] = f
	}
	checkFilters(t, label+", fresh", mk(), ref, cuts, metrics, rev, true)
}

// TestShardDifferentialEquivalence is the property-style suite: one
// shard vs many. The one-shard set a store gives (indexed and not) and,
// for seeded random split points, an N-shard ShardSet must each answer
// every query API bit-identically to the naive row reference over the
// same rows in the same order, cut at the same places — selective and
// broad filters, indexed or not, any worker count. Every set runs the
// same kernels, so comparing one with another would prove nothing; the
// row baseline shares no code with them. The one-shard rows take no
// cuts: their answers are the plain running sums they were before sums
// had a split to depend on.
func TestShardDifferentialEquivalence(t *testing.T) {
	const rows = 5000
	ref := equivStore(rows) // unindexed: the baseline scans
	st := equivStore(rows)
	metrics := []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops, MetricRead}
	one := st.AsSet()
	checkAgainstBaseline(t, "one shard, unindexed", one, ref, nil, metrics)
	one.BuildIndex() // indexing never changes results
	checkAgainstBaseline(t, "one shard, indexed", one, ref, nil, metrics)

	rng := rand.New(rand.NewSource(1))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		ncuts := trial % 7 // 0 cuts = single shard through 6 cuts = 7 shards
		cuts := randomCuts(rng, rows, ncuts)
		mk := func() *ShardSet {
			ss := NewShardSet(splitParts(st, cuts))
			if trial%2 == 1 {
				ss.BuildIndex()
			}
			return ss
		}
		label := fmt.Sprintf("trial %d (cuts %v, indexed %v)", trial, cuts, trial%2 == 1)
		checkColdWarmFresh(t, label, mk, ref, cuts, metrics, equivFilters)
	}

	// equivStore alternates two clusters, so its shards rarely hold a
	// whole population of the shape the daemon serves. wholeStore's do.
	wref, wst := wholeStore(), wholeStore()
	for trial := 0; trial < (trials+1)/2; trial++ {
		cuts := wholeCuts(rng, trial%5)
		mk := func() *ShardSet {
			ss := NewShardSet(splitParts(wst, cuts))
			if trial%2 == 1 {
				ss.BuildIndex()
			}
			return ss
		}
		label := fmt.Sprintf("whole-population trial %d (cuts %v, indexed %v)", trial, cuts, trial%2 == 1)
		checkColdWarmFresh(t, label, mk, wref, cuts, metrics, wholeFilters(t, mk()))
	}
}

// wholeStore is the fixture for what a shard remembers: one cluster, as
// a realm's data directory has, job ends strictly ascending so a window
// can be set exactly on a shard's bounds, and three runs of rows that
// wholeCuts makes shards of — rows [0, 400) all sampled (MinSamples 1
// is vacuous there: the all-rows population), rows [400, 520) with no
// sample at all (an empty sampled population) and the mixed rest, with
// NaN and ±Inf metric values, zero weights and negative values.
func wholeStore() *Store {
	st := New()
	apps := []string{"namd", "amber", "wrf"}
	for i := 0; i < 6000; i++ {
		r := JobRecord{
			JobID: int64(1 + i), Cluster: "ranger", User: fmt.Sprintf("u%02d", i%11),
			App: apps[i%3], Science: []string{"Chemistry", "Physics"}[i%2], Nodes: i % 33,
			Submit: int64(40 * i), Start: int64(40*i + 5), End: int64(40*i+5) + int64(30*(i%4)),
			Status: []string{"completed", "failed"}[i%9/8], Samples: i % 5,
		}
		switch {
		case i < 400:
			r.Samples = 1 + i%4
		case i < 520:
			r.Samples = 0
		}
		// Ends ascend strictly: 40 a row against at most 90 of jitter
		// would not, so the jitter goes to Start instead.
		r.Start, r.End = r.Start-int64(30*(i%4)), int64(40*i+5)
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 31)
		r.FlopsGF = 0.3 * float64(i%13)
		r.ReadMB = -1.5 * float64(i%9)
		if i%97 == 0 {
			r.FlopsGF = math.NaN()
		}
		if i%89 == 0 {
			r.MemUsedGB = math.Inf(1)
		}
		if i%83 == 0 {
			r.CPUIdleFrac = math.NaN()
		}
		st.Add(r)
	}
	return st
}

// wholeCuts cuts wholeStore into its all-sampled shard, its unsampled
// shard, a zero-row shard (the repeated cut) and n+1 seeded shards of
// the mixed rest.
func wholeCuts(rng *rand.Rand, n int) []int {
	cuts := []int{400, 520, 520}
	for _, c := range randomCuts(rng, 6000-520, n) {
		cuts = append(cuts, 520+c)
	}
	return cuts
}

// wholeFilters are the filters product traffic sends, against a set cut
// by wholeCuts: the realm's base filter and its parts, and windows whose
// bounds sit exactly on a shard's first and last job end — covering it
// (the shard is whole), and one second inside (it is cut).
func wholeFilters(t *testing.T, ss *ShardSet) []Filter {
	t.Helper()
	n := ss.NumShards()
	sampled, unsampled, empty, mixed, last := ss.ShardAt(0).Info(), ss.ShardAt(1).Info(), ss.ShardAt(2).Info(), ss.ShardAt(3).Info(), ss.ShardAt(n-1).Info()
	if c := ss.ShardAt(0).Columns(); c.minSamples < 1 || ss.ShardAt(1).Columns().minSamples != 0 || empty.Rows != 0 || mixed.Rows == 0 {
		t.Fatalf("fixture: shards 0-3 are not the all-sampled, unsampled, zero-row and mixed ones (%+v %+v %+v %+v)", sampled, unsampled, empty, mixed)
	}
	base := Filter{Cluster: "ranger", MinSamples: 1}
	window := func(after, before int64) Filter {
		f := base
		f.EndAfter, f.EndBefore = after, before
		return f
	}
	return []Filter{
		base, {MinSamples: 1}, {Cluster: "ranger"}, {},
		{MinSamples: 2},                          // another threshold: walked
		{Cluster: "ranger", MinSamples: 1 << 31}, // beyond the column's type: nothing
		{User: "u03", MinSamples: 1},             // a surviving predicate: walked
		{Status: "completed", MinSamples: 1},     // vacuous in some shards only
		{Cluster: "nonesuch", MinSamples: 1},
		window(sampled.MinEnd, last.MaxEnd+1),                         // every shard whole
		window(mixed.MinEnd, mixed.MaxEnd+1),                          // exactly one shard, whole
		window(mixed.MinEnd+1, mixed.MaxEnd),                          // the same shard, its first and last row cut
		window(mixed.MinEnd, mixed.MaxEnd),                            // whole at the front, cut at the back
		window(unsampled.MinEnd, mixed.MaxEnd+1),                      // the empty population, the zero-row shard, one more
		window(sampled.MinEnd+1, unsampled.MaxEnd+1),                  // the all-sampled shard cut
		{EndAfter: unsampled.MinEnd, EndBefore: unsampled.MaxEnd + 1}, // all rows of the unsampled shard
		window(last.MaxEnd+1, 0),                                      // after everything
	}
}

// TestShardDifferentialDayParts pins the production split — partition
// by end day, exactly what WriteShardDir writes and what the daemon
// holds whatever file it loaded — against the row baseline cut at the
// day boundaries, and the same rows as one shard against the uncut one.
func TestShardDifferentialDayParts(t *testing.T) {
	ref := multiDayStore(4000)
	st := multiDayStore(4000)
	st.BuildIndex()
	_, cols := st.partitionByEndDay()
	if len(cols) < 3 {
		t.Fatalf("fixture spans %d days, want >= 3", len(cols))
	}
	ss := NewShardSet(cols)
	ss.BuildIndex()
	metrics := []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops}
	checkAgainstBaseline(t, "day split", ss, ref, cutsOf(cols), metrics)
	one := st.AsSet()
	one.BuildIndex()
	checkAgainstBaseline(t, "one shard", one, ref, nil, metrics)
}

// TestSplitMovesOnlyLastUlps bounds what a split can change: the
// selection is the same, so N, Min and Max are exact, and every sum is
// the same additions regrouped, so it moves by rounding only — within
// 1e-12 relative on a multi-day corpus.
func TestSplitMovesOnlyLastUlps(t *testing.T) {
	st := multiDayStore(20_000)
	_, cols := st.partitionByEndDay()
	one, ss := st.AsSet(), NewShardSet(cols)
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	metrics := []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops}
	moved := 0
	for _, f := range equivFilters {
		if a, b := one.Scan(f).NodeHours(), ss.Scan(f).NodeHours(); !near(a, b) {
			t.Errorf("%+v: NodeHours %v vs %v", f, a, b)
		}
		for _, m := range metrics {
			a, b := one.Aggregate(m, f), ss.Aggregate(m, f)
			if a.N != b.N || math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
				t.Errorf("%s %+v: N/Min/Max moved: %+v vs %+v", m, f, a, b)
			}
			if a.N == 0 {
				continue
			}
			if !near(a.NodeHours, b.NodeHours) || !near(a.Mean, b.Mean) || !near(a.StdDev, b.StdDev) || !near(a.UnweightedMean, b.UnweightedMean) {
				t.Errorf("%s %+v: sums moved by more than 1e-12: %+v vs %+v", m, f, a, b)
			}
			if !aggBitsEqual(a, b) {
				moved++
			}
		}
		mono := map[string]Group{}
		for _, g := range one.GroupBy(ByUser, metrics, f) {
			mono[g.Key] = g
		}
		split := ss.GroupBy(ByUser, metrics, f)
		if len(split) != len(mono) {
			t.Fatalf("%+v: %d groups vs %d", f, len(split), len(mono))
		}
		for _, g := range split {
			w := mono[g.Key]
			if g.N != w.N || !near(g.NodeHours, w.NodeHours) {
				t.Errorf("%+v user %s: %+v vs %+v", f, g.Key, g, w)
			}
			for _, m := range metrics {
				if !near(g.Mean[m], w.Mean[m]) {
					t.Errorf("%+v user %s %s: %v vs %v", f, g.Key, m, g.Mean[m], w.Mean[m])
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no aggregate moved at all: the fixture does not exercise the split")
	}
}

// TestShardAggregateCtxCancel: a cancelled context aborts the
// cross-shard aggregation with ctx's error and the zero Agg — before
// the run, or in the middle of it, where the scheduler stops within one
// shard per worker.
func TestShardAggregateCtxCancel(t *testing.T) {
	st := equivStore(3000)
	_, cols := st.partitionByEndDay()
	ss := NewShardSet(cols)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := ss.AggregateParallelCtx(ctx, MetricCPUIdle, Filter{}, 4); !errors.Is(err, context.Canceled) || got != (Agg{}) {
		t.Errorf("cancelled context: %+v, %v; want the zero Agg and context.Canceled", got, err)
	}

	// Mid-run, at the scheduler: once done fires during the tenth shard,
	// every worker finishes at most the shard it holds.
	for _, workers := range []int{1, 2, 4} {
		done := make(chan struct{})
		var calls atomic.Int64
		runChunks(done, 1000, workers, func(int) {
			if calls.Add(1) == 10 {
				close(done)
			}
		})
		if n := calls.Load(); n < 10 || n > 10+int64(workers) {
			t.Errorf("workers=%d: %d shards ran after a cancel during the 10th", workers, n)
		}
	}

	// Mid-run, end to end: a cancel racing the kernel yields the whole
	// answer or ctx's error, never a half-summed Agg.
	many := make([]*Columns, 400)
	for i := range many {
		many[i] = cols[i%len(cols)]
	}
	wide := NewShardSet(many)
	want := wide.Aggregate(MetricCPUIdle, Filter{})
	for i := 0; i < 60; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		got, err := wide.AggregateParallelCtx(ctx, MetricCPUIdle, Filter{}, 1+i%4)
		cancel()
		switch {
		case err == nil && aggBitsEqual(got, want):
		case errors.Is(err, context.Canceled) && got == (Agg{}):
		default:
			t.Fatalf("racing cancel: %+v, %v", got, err)
		}
	}
}
