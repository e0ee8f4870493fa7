package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// bit-identically to the naive row reference computed over ref, which
// holds the same rows in the same global order: Select, Records,
// TotalNodeHours, serial and chunked aggregates (workers 1–6), Values
// and GroupBy over all five keys plus an out-of-range one.
func checkAgainstBaseline(t *testing.T, label string, r Reader, ref *Store, metrics []Metric) {
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
		gotRecs := r.Records(f)
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
		if math.Float64bits(r.TotalNodeHours(f)) != math.Float64bits(ref.baselineTotalNodeHours(f)) {
			fail("TotalNodeHours")
		}
		// The row walk visits exactly the baseline's rows, in its order,
		// reading the same values in place.
		scan, k := r.Scan(f), 0
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
		for _, m := range metrics {
			// Serial compares against serial and chunked against
			// chunked: the two kernels accumulate in different orders by
			// design (fixed 4096-row chunks vs one running sum).
			if got := r.Aggregate(m, f); !aggBitsEqual(got, ref.baselineAggregate(m, f)) {
				fail("Aggregate " + string(m))
			}
			wantPar := ref.baselineAggregateParallel(m, f, 4)
			for w := 1; w <= 6; w++ {
				if got := aggParallel(r, m, f, w); !aggBitsEqual(got, wantPar) {
					fail(fmt.Sprintf("AggregateParallelCtx %s workers=%d", m, w))
				}
			}
			wv, ww := ref.baselineValues(m, f)
			gv, gw := r.Values(m, f)
			if !floatsBitsEqual(gv, wv) || !floatsBitsEqual(gw, ww) || (gv == nil) != (wv == nil) {
				fail("Values " + string(m))
			}
		}
		for _, k := range keys {
			got := r.GroupBy(k, metrics[:2], f)
			if got == nil || !groupsBitsEqual(got, ref.baselineGroupBy(k, metrics[:2], f)) {
				fail(fmt.Sprintf("GroupBy key %d", k))
			}
		}
	}
}

// TestShardDifferentialEquivalence is the property-style suite: the
// one-shard *Store (indexed and not) and, for seeded random split
// points, an N-shard ShardSet must each answer every query API
// bit-identically to the naive row reference over the same rows in the
// same order — serial and parallel, any worker count, selective and
// broad filters, indexed or not. *Store and *ShardSet run the same
// kernels, so comparing one with the other would prove nothing; the
// row baseline shares no code with them. This is the invariant that
// lets the serve layer treat the two backings as interchangeable.
func TestShardDifferentialEquivalence(t *testing.T) {
	const rows = 5000
	ref := equivStore(rows) // unindexed: the baseline scans
	st := equivStore(rows)
	metrics := []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops, MetricRead}
	checkAgainstBaseline(t, "one-shard store, unindexed", st, ref, metrics)
	st.BuildIndex() // indexing never changes results
	checkAgainstBaseline(t, "one-shard store, indexed", st, ref, metrics)

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
		checkAgainstBaseline(t, label, ss, ref, metrics)
	}
}

// TestShardDifferentialDayParts pins the production split — partition
// by end day, exactly what WriteShardDir writes — and the same store
// reordered by day, against the row baseline, including parallel paths
// under every worker count a small machine would see.
func TestShardDifferentialDayParts(t *testing.T) {
	st := multiDayStore(4000)
	st.BuildIndex()
	_, cols := st.partitionByEndDay()
	ss := NewShardSet(cols)
	ss.BuildIndex()
	for _, f := range equivFilters {
		for _, m := range []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops} {
			want := st.baselineAggregateParallel(m, f, 2)
			for w := 1; w <= 6; w++ {
				if got := aggParallel(ss, m, f, w); !aggBitsEqual(got, want) {
					t.Fatalf("day split, %s, %d workers, %+v: parallel diverges", m, w, f)
				}
				if got := aggParallel(st, m, f, w); !aggBitsEqual(got, want) {
					t.Fatalf("monolithic, %s, %d workers, %+v: parallel diverges", m, w, f)
				}
			}
			wantSerial := st.baselineAggregate(m, f)
			if got := ss.Aggregate(m, f); !aggBitsEqual(got, wantSerial) {
				t.Fatalf("day split, %s, %+v: serial diverges", m, f)
			}
			if got := st.Aggregate(m, f); !aggBitsEqual(got, wantSerial) {
				t.Fatalf("monolithic, %s, %+v: serial diverges", m, f)
			}
		}
	}
}

// TestShardAggregateCtxCancel mirrors the monolithic contract: a
// cancelled context aborts the cross-shard aggregation with an error.
func TestShardAggregateCtxCancel(t *testing.T) {
	st := equivStore(3000)
	_, cols := st.partitionByEndDay()
	ss := NewShardSet(cols)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ss.AggregateParallelCtx(ctx, MetricCPUIdle, Filter{}, 4); err == nil {
		t.Error("cancelled context did not abort cross-shard aggregation")
	}
}
