package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// checkAgainstBaseline asserts that r answers every Reader query method
// and every Selection consumer bit-identically to the naive row
// reference computed over ref, which holds the same rows in the same
// global order, cut where r is cut: Select, Scan's Records, Walk and
// Values (which no cut can move), its NodeHours, Aggregate through both
// entry points and GroupBy over all five keys plus an out-of-range one
// (whose sums follow the cuts).
func checkAgainstBaseline(t *testing.T, label string, r Reader, ref *Store, cuts []int, metrics []Metric) {
	t.Helper()
	keys := []GroupKey{ByUser, ByApp, ByScience, ByCluster, ByStatus, GroupKey(99)}
	for fi, f := range equivFilters {
		fail := func(what string) {
			t.Helper()
			t.Fatalf("%s, filter %d %+v: %s diverges from the row baseline", label, fi, f, what)
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
			// equivStore plants NaN metric values, so struct equality
			// would reject identical records; formatted comparison
			// treats NaN == NaN while still seeing every field.
			if fmt.Sprintf("%+v", gotRecs[i]) != fmt.Sprintf("%+v", wantRecs[i]) {
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
		for _, k := range keys {
			got := r.GroupBy(k, metrics[:2], f)
			if got == nil || !groupsBitsEqual(got, ref.baselineGroupBy(k, metrics[:2], f, cuts...)) {
				fail(fmt.Sprintf("GroupBy key %d", k))
			}
		}
	}
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
		ss := NewShardSet(splitParts(st, cuts))
		if trial%2 == 1 {
			ss.BuildIndex()
		}
		label := fmt.Sprintf("trial %d (cuts %v, indexed %v)", trial, cuts, ss.HasIndex())
		checkAgainstBaseline(t, label, ss, ref, cuts, metrics)
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
