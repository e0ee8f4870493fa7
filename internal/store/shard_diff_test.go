package store_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/store"
)

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

// checkFilters asserts that r answers every Reader query method and
// every Selection consumer bit-identically to the reference over ref,
// which holds the same rows in the same global order, cut where r is
// cut: Select, Scan's Records, Walk and Values (which no cut can move),
// its NodeHours, Histogram (whose bounds no cut can move either),
// Aggregate through both entry points and GroupBy over
// all five keys plus an out-of-range one (whose sums follow the cuts).
// groupFirst asks each filter's group-bys before its selection and
// aggregates, so that on a set nothing has queried yet a different
// kernel is the one whose call fills the shards' memo.
func checkFilters(t *testing.T, label string, r store.Reader, ref reference.Parts, metrics []store.Metric, filters []store.Filter, groupFirst bool) {
	t.Helper()
	keys := []store.GroupKey{store.ByUser, store.ByApp, store.ByScience, store.ByCluster, store.ByStatus, store.GroupKey(99)}
	for fi, f := range filters {
		same := func(what string, got, want any) {
			t.Helper()
			if !reference.Same(got, want) {
				t.Fatalf("%s, filter %d %+v: %s diverges from the reference", label, fi, f, what)
			}
		}
		groups := func() {
			for _, k := range keys {
				same(fmt.Sprintf("GroupBy key %d", k), r.GroupBy(k, metrics[:2], f), ref.GroupBy(k, metrics[:2], f))
			}
			// A metric whose slot is empty beside one already filled,
			// under a key whose base is filled (the mixed first touch, on
			// a cold set); one metric; the same one twice: a request is
			// assembled from per-metric slots.
			last := metrics[len(metrics)-1]
			for _, ms := range [][]store.Metric{{last, metrics[0]}, metrics[2:3], {metrics[0], metrics[0]}} {
				same(fmt.Sprintf("GroupBy user %v", ms), r.GroupBy(store.ByUser, ms, f), ref.GroupBy(store.ByUser, ms, f))
			}
		}
		if groupFirst {
			groups()
		}
		same("Select", r.Select(f), ref.Select(f))
		wantRecs := ref.Records(f)
		scan := r.Scan(f)
		same("Records", scan.Records(), wantRecs)
		same("NodeHours", scan.NodeHours(), ref.NodeHours(f))
		same("Scan length", scan.Len(), len(wantRecs))
		// The row walk visits exactly the reference's rows, in its order,
		// reading the same values in place.
		var ids, wantIDs []int64
		var walked, wantWalked [2][]float64 // node-hours, the first metric
		scan.Walk(func(c *store.Columns, rows []int32) {
			if len(rows) == 0 {
				t.Fatalf("%s, filter %d %+v: Walk visited a partition with no selected row", label, fi, f)
			}
			if cap(rows) != len(rows) {
				t.Fatalf("%s, filter %d %+v: Walk handed out %d rows with capacity %d: an append would write into the shard's list", label, fi, f, len(rows), cap(rows))
			}
			for _, i := range rows {
				ids = append(ids, c.JobID[i])
				walked[0], walked[1] = append(walked[0], c.NodeHours()[i]), append(walked[1], c.Metric(metrics[0])[i])
			}
		})
		for _, r := range wantRecs {
			wantIDs = append(wantIDs, r.JobID)
			wantWalked[0], wantWalked[1] = append(wantWalked[0], r.NodeHours()), append(wantWalked[1], r.Value(metrics[0]))
		}
		same("Walk", []any{ids, walked}, []any{wantIDs, wantWalked})
		for _, m := range metrics {
			want := ref.Aggregate(m, f)
			same("Aggregate "+string(m), r.Aggregate(m, f), want)
			// One kernel behind both entry points, whatever workers says.
			for _, w := range []int{1, 2, 7} {
				same(fmt.Sprintf("AggregateParallelCtx %s workers=%d", m, w), aggParallel(r, m, f, w), want)
			}
			wv := ref.Values(m, f)
			same("Values "+string(m), scan.Values(m), wv)
			same("Reader.Values "+string(m), r.Values(m, f), wv)
			for _, bins := range []int{1, 7} {
				same(fmt.Sprintf("Histogram %s bins=%d", m, bins), histogram(r, m, f, bins), ref.Histogram(m, f, bins))
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
// second fresh set over the same rows with the filters in reverse and
// the group-bys first (the memo fills in another order, from other
// kernels) — and holds all three to the reference: what a shard
// remembers is what a walk computes, whoever computed it first.
func checkColdWarmFresh(t *testing.T, label string, mk func() *store.ShardSet, ref reference.Parts, metrics []store.Metric, filters []store.Filter) {
	t.Helper()
	ss := mk()
	checkFilters(t, label+", cold", ss, ref, metrics, filters, false)
	cold := ss.PartitionUse()
	checkFilters(t, label+", warm", ss, ref, metrics, filters, false)
	// The same calls again sort every partition the same way, except
	// that a population's first touch counted as a walk.
	both := ss.PartitionUse()
	if both.Pruned != 2*cold.Pruned || both.Remembered+both.Walked != 2*(cold.Remembered+cold.Walked) ||
		both.Remembered-cold.Remembered < cold.Remembered {
		t.Errorf("%s: partition use after the cold pass %+v, after the warm pass too %+v", label, cold, both)
	}
	rev := slices.Clone(filters)
	slices.Reverse(rev)
	checkFilters(t, label+", fresh", mk(), ref, metrics, rev, true)
}

// TestShardDifferentialEquivalence is the property-style suite: one
// shard vs many. The one-shard set a store gives and, for seeded random
// split points, an N-shard ShardSet must each answer every query API
// bit-identically to the reference over the same rows in the same
// order, cut at the same places — selective and broad filters, any
// worker count. Every set runs the same kernels, so comparing one with
// another would prove nothing; the reference shares no code with them.
// The one-shard rows are one partition: their answers are the plain
// running sums they were before sums had a split to depend on.
func TestShardDifferentialEquivalence(t *testing.T) {
	const n = 5000
	rows := equivRows(n)
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops, store.MetricRead}
	checkColdWarmFresh(t, "one shard", storeOf(rows).AsSet, reference.Parts{rows}, metrics, equivFilters)

	rng := rand.New(rand.NewSource(1))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		cuts := randomCuts(rng, n, trial%7) // 0 cuts = single shard through 6 cuts = 7 shards
		parts := cut(rows, cuts)
		mk := func() *store.ShardSet { return setOf(parts) }
		checkColdWarmFresh(t, fmt.Sprintf("trial %d (cuts %v)", trial, cuts), mk, parts, metrics, equivFilters)
	}

	// equivRows alternate two clusters, so their shards rarely hold a
	// whole population of the shape the daemon serves. wholeRows' do.
	whole := wholeRows()
	for trial := 0; trial < (trials+1)/2; trial++ {
		cuts := wholeCuts(rng, trial%5)
		parts := cut(whole, cuts)
		mk := func() *store.ShardSet { return setOf(parts) }
		checkColdWarmFresh(t, fmt.Sprintf("whole-population trial %d (cuts %v)", trial, cuts), mk, parts, metrics, wholeFilters(t, mk()))
	}
}

// wholeRows are the fixture for what a shard remembers: one cluster, as
// a realm's data directory has, job ends strictly ascending so a window
// can be set exactly on a shard's bounds, and three runs of rows that
// wholeCuts makes shards of — rows [0, 400) all sampled (MinSamples 1
// is vacuous there: the all-rows population), rows [400, 520) with no
// sample at all (an empty sampled population) and the mixed rest, with
// NaN and ±Inf metric values, zero weights and negative values.
func wholeRows() []store.JobRecord {
	apps := []string{"namd", "amber", "wrf"}
	rows := make([]store.JobRecord, 6000)
	for i := range rows {
		r := store.JobRecord{
			JobID: int64(1 + i), Cluster: "ranger", User: fmt.Sprintf("u%02d", i%11),
			App: apps[i%3], Science: []string{"Chemistry", "Physics"}[i%2], Nodes: i % 33,
			Submit: int64(40 * i), Status: []string{"completed", "failed"}[i%9/8], Samples: i % 5,
		}
		switch {
		case i < 400:
			r.Samples = 1 + i%4
		case i < 520:
			r.Samples = 0
		}
		// Ends ascend strictly: 40 a row; the jitter goes to Start.
		r.End = int64(40*i + 5)
		r.Start = r.End - int64(30*(i%4))
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
		rows[i] = r
	}
	return rows
}

// wholeCuts cuts wholeRows into its all-sampled shard, its unsampled
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
func wholeFilters(t *testing.T, ss *store.ShardSet) []store.Filter {
	t.Helper()
	n := ss.NumShards()
	sampled, unsampled, empty, mixed, last := ss.ShardAt(0).Info(), ss.ShardAt(1).Info(), ss.ShardAt(2).Info(), ss.ShardAt(3).Info(), ss.ShardAt(n-1).Info()
	if slices.Min(ss.ShardAt(0).Columns().Samples) < 1 || slices.Max(ss.ShardAt(1).Columns().Samples) != 0 || empty.Rows != 0 || mixed.Rows == 0 {
		t.Fatalf("fixture: shards 0-3 are not the all-sampled, unsampled, zero-row and mixed ones (%+v %+v %+v %+v)", sampled, unsampled, empty, mixed)
	}
	base := store.Filter{Cluster: "ranger", MinSamples: 1}
	window := func(after, before int64) store.Filter {
		f := base
		f.EndAfter, f.EndBefore = after, before
		return f
	}
	return []store.Filter{
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
// holds whatever file it loaded — against the reference cut by end day,
// and the same rows as one shard against them as one partition.
func TestShardDifferentialDayParts(t *testing.T) {
	st := store.MultiDayStore(4000)
	rows, cols := rowsOf(st), store.DayParts(st)
	if len(cols) < 3 {
		t.Fatalf("fixture spans %d days, want >= 3", len(cols))
	}
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops}
	checkFilters(t, "day split", store.NewShardSet(cols), reference.ByEndDay(rows), metrics, equivFilters, false)
	checkFilters(t, "one shard", st.AsSet(), reference.Parts{rows}, metrics, equivFilters, false)
}

// TestSplitMovesOnlyLastUlps bounds what a split can change: the
// selection is the same, so N, Min and Max are exact, and every sum is
// the same additions regrouped, so it moves by rounding only — within
// 1e-12 relative on a multi-day corpus.
func TestSplitMovesOnlyLastUlps(t *testing.T) {
	st := store.MultiDayStore(20_000)
	one, ss := st.AsSet(), store.NewShardSet(store.DayParts(st))
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops}
	moved := 0
	for _, f := range equivFilters {
		if a, b := one.Scan(f).NodeHours(), ss.Scan(f).NodeHours(); !near(a, b) {
			t.Errorf("%+v: NodeHours %v vs %v", f, a, b)
		}
		for _, m := range metrics {
			a, b := one.Aggregate(m, f), ss.Aggregate(m, f)
			if !reference.Same([]any{a.N, a.Min, a.Max}, []any{b.N, b.Min, b.Max}) {
				t.Errorf("%s %+v: N/Min/Max moved: %+v vs %+v", m, f, a, b)
			}
			if a.N == 0 {
				continue
			}
			if !near(a.NodeHours, b.NodeHours) || !near(a.Mean, b.Mean) || !near(a.StdDev, b.StdDev) || !near(a.UnweightedMean, b.UnweightedMean) {
				t.Errorf("%s %+v: sums moved by more than 1e-12: %+v vs %+v", m, f, a, b)
			}
			if !reference.Same(a, b) {
				moved++
			}
		}
		mono := map[string]store.Group{}
		for _, g := range one.GroupBy(store.ByUser, metrics, f) {
			mono[g.Key] = g
		}
		split := ss.GroupBy(store.ByUser, metrics, f)
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

// TestShardPruneByTimeWindow: a one-day window prunes every other day
// shard, and pruning never changes the answer.
func TestShardPruneByTimeWindow(t *testing.T) {
	st := store.MultiDayStore(3000)
	ss, ref := store.NewShardSet(store.DayParts(st)), reference.ByEndDay(rowsOf(st))
	if ss.NumShards() < 3 {
		t.Fatalf("fixture spans %d shards, want >= 3", ss.NumShards())
	}
	mid := ss.ShardAt(1).Info()
	f := store.Filter{Cluster: "ranger", EndAfter: mid.MinEnd, EndBefore: mid.MaxEnd + 1}
	if pruned, want := store.PrunedParts(ss, f), ss.NumShards()-1; pruned != want {
		t.Errorf("one-day window pruned %d of %d shards, want %d", pruned, ss.NumShards(), want)
	}
	for _, m := range []store.Metric{store.MetricCPUIdle, store.MetricMemUsed} {
		if got, want := ss.Aggregate(m, f), ref.Aggregate(m, f); !reference.Same(got, want) {
			t.Errorf("%s: pruned aggregate %+v diverges from the reference %+v", m, got, want)
		}
	}
	if got, want := ss.Select(f), ref.Select(f); !reference.Same(got, want) {
		t.Errorf("pruned select has %d rows, reference %d", len(got), len(want))
	}
	// An impossible window prunes everything and still answers exactly.
	none := store.Filter{EndAfter: ss.ShardAt(ss.NumShards()-1).Info().MaxEnd + 1}
	if pruned := store.PrunedParts(ss, none); pruned != ss.NumShards() {
		t.Errorf("empty window pruned %d of %d shards", pruned, ss.NumShards())
	}
	if got, want := ss.Aggregate(store.MetricCPUIdle, none), ref.Aggregate(store.MetricCPUIdle, none); !reference.Same(got, want) {
		t.Errorf("all-pruned aggregate %+v diverges from the reference's empty aggregate %+v", got, want)
	}
}

func TestShardSetEmptyAndSingle(t *testing.T) {
	// Empty set: every query answers like the reference over no rows.
	empty := store.NewShardSet(nil)
	if empty.Len() != 0 {
		t.Fatalf("empty shard set has %d rows", empty.Len())
	}
	if rs := empty.Select(store.Filter{}); rs != nil {
		t.Errorf("empty set selected %v", rs)
	}
	if g := empty.GroupBy(store.ByApp, []store.Metric{store.MetricCPUIdle}, store.Filter{}); len(g) != 0 {
		t.Errorf("empty set grouped %d buckets", len(g))
	}
	if got, want := empty.Aggregate(store.MetricCPUIdle, store.Filter{}), (reference.Parts{}).Aggregate(store.MetricCPUIdle, store.Filter{}); !reference.Same(got, want) {
		t.Errorf("empty shard set aggregate %+v differs from the reference's %+v", got, want)
	}

	// Single shard: the degenerate split is exactly the monolith.
	rows := equivRows(700)
	one, ref := store.NewShardSet([]*store.Columns{storeOf(rows).Columns()}), reference.Parts{rows}
	for _, f := range equivFilters {
		for _, m := range []store.Metric{store.MetricCPUIdle, store.MetricFlops} {
			if got, want := one.Aggregate(m, f), ref.Aggregate(m, f); !reference.Same(got, want) {
				t.Fatalf("single-shard aggregate diverges (%s, %+v)", m, f)
			}
		}
	}
}

// TestShardAggregateCtxCancel: a cancelled context aborts the
// cross-shard aggregation with ctx's error and the zero Agg — before
// the run, or in the middle of it, where the kernel stops within one
// shard.
func TestShardAggregateCtxCancel(t *testing.T) {
	cols := store.DayParts(storeOf(equivRows(3000)))
	ss := store.NewShardSet(cols)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := ss.AggregateParallelCtx(ctx, store.MetricCPUIdle, store.Filter{}, 4); !errors.Is(err, context.Canceled) || got != (store.Agg{}) {
		t.Errorf("cancelled context: %+v, %v; want the zero Agg and context.Canceled", got, err)
	}

	// Mid-run, at the kernel: a ctx that fires while the tenth shard is
	// summed lets no further shard start. On a set that remembers its
	// row lists (one Scan fills them) and nothing else, every shard the
	// call summed is one it walked (a partial's first touch).
	many := make([]*store.Columns, 400)
	for i := range many {
		many[i] = cols[i%len(cols)]
	}
	cold := store.NewShardSet(many)
	cold.Scan(store.Filter{})
	listed := cold.PartitionUse().Walked
	fires := &firesAt{Context: context.Background(), at: 11, closed: make(chan struct{})}
	close(fires.closed)
	if got, err := cold.AggregateParallelCtx(fires, store.MetricCPUIdle, store.Filter{}, 4); !errors.Is(err, context.Canceled) || got != (store.Agg{}) {
		t.Errorf("ctx fired mid-run: %+v, %v; want the zero Agg and context.Canceled", got, err)
	}
	if walked := cold.PartitionUse().Walked - listed; walked != 10 {
		t.Errorf("%d shards were summed after a cancel during the 10th, want 10", walked)
	}

	// Mid-run, end to end: a cancel racing the kernel yields the whole
	// answer or ctx's error, never a half-summed Agg.
	wide := store.NewShardSet(many)
	want := wide.Aggregate(store.MetricCPUIdle, store.Filter{})
	for i := 0; i < 60; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		got, err := wide.AggregateParallelCtx(ctx, store.MetricCPUIdle, store.Filter{}, 1+i%4)
		cancel()
		switch {
		case err == nil && reference.Same(got, want):
		case errors.Is(err, context.Canceled) && got == (store.Agg{}):
		default:
			t.Fatalf("racing cancel: %+v, %v", got, err)
		}
	}
}

// firesAt is a context that fires at its at'th poll of Done.
type firesAt struct {
	context.Context
	polls, at int
	closed    chan struct{}
}

func (c *firesAt) Done() <-chan struct{} {
	if c.polls++; c.polls >= c.at {
		return c.closed
	}
	return nil
}

func (c *firesAt) Err() error {
	if c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestMemoFirstTouchRace: sixteen goroutines put overlapping aggregates,
// group-bys and scans to one set nothing has queried, so the first
// touches of every slot collide; each answer must be the one a set
// queried by a single goroutine gives. `make test-store` runs it under
// the race detector at one, two and four cores.
func TestMemoFirstTouchRace(t *testing.T) {
	cols := store.HistoryParts(t, 12_000, 12)
	serial, racing := store.NewShardSet(cols), store.NewShardSet(cols)
	first, last := serial.ShardAt(2).Info(), serial.ShardAt(9).Info()
	base := store.Filter{Cluster: "ranger", MinSamples: 1}
	window := base
	window.EndAfter, window.EndBefore = first.MinEnd+1800, last.MaxEnd-1800 // both edge shards cut
	filters := []store.Filter{base, window, {Cluster: "ranger"}, {User: "user0001", MinSamples: 1}}
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricFlops, store.MetricMemUsed}

	ask := func(ss *store.ShardSet, q int) []any {
		f, m := filters[q%len(filters)], metrics[q/len(filters)%len(metrics)]
		sel := ss.Scan(f)
		return []any{
			aggParallel(ss, m, f, 1+q%3),
			ss.GroupBy(store.GroupKey(q%3), metrics[:1+q%len(metrics)], f),
			sel.Len(), sel.NodeHours(), sel.Values(m),
			histogram(ss, m, f, 5),
		}
	}
	const queries = 24
	want := make([][]any, queries)
	for q := range want {
		want[q] = ask(serial, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				q := (i + 5*g) % queries // every goroutine starts somewhere else
				if got := ask(racing, q); !reference.Same(got, want[q]) {
					t.Errorf("goroutine %d, query %d: the racing set's answer differs from the serial one", g, q)
				}
			}
		}(g)
	}
	wg.Wait()
	// Only first touches were walks: with both sets warm, the same
	// queries walk just the partitions their filters cut.
	before := racing.PartitionUse()
	for q := 0; q < queries; q++ {
		ask(racing, q)
	}
	after, ref := racing.PartitionUse(), serial.PartitionUse()
	for q := 0; q < queries; q++ {
		ask(serial, q)
	}
	if got, want := after.Walked-before.Walked, serial.PartitionUse().Walked-ref.Walked; got != want {
		t.Errorf("warm pass walked %d partitions on the raced set, %d on the serial one", got, want)
	}
}

// TestDegradedAggregatesMatchBaseline is the isolation property:
// quarantining day N must leave every aggregate over days != N
// bit-identical to the same query against the full store — degraded
// serving never perturbs the healthy days.
func TestDegradedAggregatesMatchBaseline(t *testing.T) {
	dir, _, entries, _ := store.HealFixture(t, 2500)
	full, err := store.LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	metrics := []store.Metric{store.MetricCPUUser, store.MetricMemUsed, store.MetricFlops}
	for trial := 0; trial < len(entries); trial++ {
		victim := entries[trial]
		if moved, err := store.QuarantineShard(dir, victim, "trial", int64(trial)); err != nil || !moved {
			t.Fatalf("quarantine: moved %v, err %v", moved, err)
		}
		degraded, faults := store.LoadShardsDegraded(dir, entries, nil, nil)
		if len(faults) != 1 || faults[0].Info.ID != victim.ID {
			t.Fatalf("trial %d: faults = %+v, want exactly day %d", trial, faults, victim.ID)
		}
		if degraded.NumShards() != len(entries)-1 {
			t.Fatalf("trial %d: degraded set has %d shards, want %d", trial, degraded.NumShards(), len(entries)-1)
		}
		// Windows that exclude the quarantined day: everything before it
		// (a bound of 0 means unbounded, so day 0 has no "before"),
		// everything after it, and a random healthy single day.
		windows := []store.Filter{
			{EndAfter: (victim.ID + 1) * store.SecondsPerDay},
		}
		if victim.ID > 0 {
			windows = append(windows, store.Filter{EndBefore: victim.ID * store.SecondsPerDay})
		}
		if healthy := pickOtherDay(rng, entries, victim.ID); healthy >= 0 {
			windows = append(windows, store.Filter{
				EndAfter:  healthy * store.SecondsPerDay,
				EndBefore: (healthy + 1) * store.SecondsPerDay,
			})
		}
		for wi, f := range windows {
			m := metrics[rng.Intn(len(metrics))]
			if a, b := full.Aggregate(m, f), degraded.Aggregate(m, f); !reference.Same(b, a) {
				t.Fatalf("trial %d window %d: degraded aggregate %+v != full %+v", trial, wi, b, a)
			}
			if !reference.Same(degraded.GroupBy(store.ByUser, metrics, f), full.GroupBy(store.ByUser, metrics, f)) {
				t.Fatalf("trial %d window %d: degraded groupby differs from the full set's", trial, wi)
			}
		}
		// Restore: move the quarantined copy back for the next trial.
		if err := os.Rename(filepath.Join(dir, store.QuarantinedShardFile(victim.ID)),
			filepath.Join(dir, store.ShardFileName(victim.ID))); err != nil {
			t.Fatal(err)
		}
	}
}

func pickOtherDay(rng *rand.Rand, entries []store.ShardInfo, not int64) int64 {
	others := make([]int64, 0, len(entries))
	for _, e := range entries {
		if e.ID != not {
			others = append(others, e.ID)
		}
	}
	if len(others) == 0 {
		return -1
	}
	return others[rng.Intn(len(others))]
}
