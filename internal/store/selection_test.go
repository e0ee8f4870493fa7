package store

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestSelectionConsumers holds everything a Selection hands out — Len,
// Values, NodeHours, Records — to the row baseline, bit for bit, on one
// shard and on two different cuts into several, for
// selections that are every row, a scattered subset, empty, and a time
// window that prunes whole shards. One Scan feeds every consumer, from
// several goroutines at once: a Selection is read-only.
func TestSelectionConsumers(t *testing.T) {
	const rows = 5000
	ref := equivStore(rows)
	st := equivStore(rows)
	filters := map[string]Filter{
		"all-rows":    {},
		"scattered":   {Cluster: "ranger", MinSamples: 1},
		"narrow":      {User: "ub", App: "amber"},
		"empty-value": {Cluster: "nonesuch"},
		"empty-scan":  {MinSamples: 10},
		"time-pruned": {EndAfter: 60_000, EndBefore: 110_000},
	}
	metrics := []Metric{MetricCPUIdle, MetricMemUsed, MetricFlops, MetricRead}
	for _, cuts := range [][]int{nil, {1000, 2500, 4000}, {1, 17, 2048, 4999}} {
		ss := st.AsSet()
		if cuts != nil {
			ss = NewShardSet(splitParts(st, cuts))
		}
		if cuts != nil && prunedParts(ss, filters["time-pruned"]) == 0 {
			t.Fatalf("cuts %v: the time window prunes no shard; the fixture does not exercise pruning", cuts)
		}
		for name, f := range filters {
			label := fmt.Sprintf("cuts %v %s", cuts, name)
			sel := ss.Scan(f)
			wantRecs := ref.baselineRecords(f)
			if sel.Len() != len(wantRecs) {
				t.Fatalf("%s: Len = %d, baseline selects %d", label, sel.Len(), len(wantRecs))
			}
			gotRecs := sel.Records()
			if gotRecs == nil || len(gotRecs) != len(wantRecs) {
				t.Fatalf("%s: Records has %d rows (nil %v), want %d", label, len(gotRecs), gotRecs == nil, len(wantRecs))
			}
			for i := range gotRecs {
				if !sameRecord(gotRecs[i], wantRecs[i]) {
					t.Fatalf("%s: Records[%d] = %+v, want %+v", label, i, gotRecs[i], wantRecs[i])
				}
			}
			if got, want := sel.NodeHours(), ref.baselineTotalNodeHours(f, cuts...); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: NodeHours = %v, want %v", label, got, want)
			}
			var wg sync.WaitGroup
			for _, m := range metrics {
				wg.Add(1)
				go func(m Metric) {
					defer wg.Done()
					want, _ := ref.baselineValues(m, f)
					got := sel.Values(m)
					if !floatsBitsEqual(got, want) || (got == nil) != (want == nil) {
						t.Errorf("%s: Values(%s) diverges from the row baseline (%d vs %d values)", label, m, len(got), len(want))
					}
				}(m)
			}
			wg.Wait()
		}
	}

	// What dropping the weight slice bought: Values on a selection
	// already taken allocates the one result slice, 8 bytes per selected
	// row, and nothing else that scales.
	t.Run("values-allocation", func(t *testing.T) {
		const n = 1 << 16 // 8n is a whole number of pages: no size-class rounding
		ss := floorStore(n).AsSet()
		sel := ss.Scan(Filter{Cluster: "ranger", MinSamples: 1})
		if sel.Len() != n {
			t.Fatalf("broad filter selects %d of %d rows", sel.Len(), n)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		vals := sel.Values(MetricFlops)
		runtime.ReadMemStats(&after)
		if len(vals) != n {
			t.Fatalf("Values returned %d of %d rows", len(vals), n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*n+1024 {
			t.Errorf("Values allocated %d B for %d rows (%.1f B/row), want <= 8 B/row + 1 KiB", got, n, float64(got)/n)
		}
	})
}

// TestAsSetIsolatedFromBuilder: a set taken from a store answers from
// the rows it was taken over, whatever the builder does next. The sharp
// case is vacuity: the set holds 99 rows of one user and one of another;
// one more Add of the first user makes the builder's count for that
// value equal the set's row count, and a set sharing the counts would
// then take "user = alice" for a predicate every row passes.
func TestAsSetIsolatedFromBuilder(t *testing.T) {
	st := New()
	for i := 0; i < 99; i++ {
		st.Add(rec(int64(i+1), "alice", "namd", 1+i%4, 1, float64(i%10)/10, float64(i)))
	}
	st.Add(rec(100, "bob", "amber", 2, 1, 0.5, 7))
	ss := st.AsSet()

	filters := []Filter{{}, {User: "alice"}, {User: "bob"}, {User: "carol"}, {App: "namd", MinSamples: 1}, {Cluster: "lonestar4"}, {EndBefore: 1 << 40}}
	type answers struct {
		Len    int
		Select []int
		Agg    Agg
		Groups []Group
		Values []float64
		Hours  float64
		Recs   []JobRecord
	}
	ask := func() []answers {
		out := make([]answers, len(filters))
		for i, f := range filters {
			sel := ss.Scan(f)
			out[i] = answers{
				Len: ss.Len(), Select: ss.Select(f), Agg: ss.Aggregate(MetricCPUIdle, f),
				Groups: ss.GroupBy(ByUser, []Metric{MetricFlops}, f),
				Values: sel.Values(MetricFlops), Hours: sel.NodeHours(), Recs: sel.Records(),
			}
		}
		return out
	}
	before := ask()
	if got := len(before[1].Select); got != 99 {
		t.Fatalf("user=alice selects %d rows before any further Add, want 99", got)
	}

	check := func(step string) {
		t.Helper()
		after := ask()
		for i, f := range filters {
			// Formatted, not DeepEqual: an empty aggregate is all NaN.
			if fmt.Sprintf("%+v", before[i]) != fmt.Sprintf("%+v", after[i]) {
				t.Errorf("after %s, filter %+v: the set's answers moved\nbefore %+v\n after %+v", step, f, before[i], after[i])
			}
		}
	}
	st.Add(rec(101, "alice", "namd", 1, 1, 0.9, 1))
	check("a 100th alice (the builder's count reaches the set's row count)")
	st.Add(rec(102, "carol", "wrf", 1, 1, 0.9, 1))
	check("a user the set has never seen")
	late := rec(103, "alice", "namd", 1, 1, 0.9, 1)
	late.Cluster, late.End, late.Samples = "lonestar4", 1<<41, 0
	st.Add(late)
	check("a row that moves every bound the builder keeps")
	if st.Len() != 103 || ss.Len() != 100 {
		t.Errorf("builder has %d rows, set %d; want 103 and 100", st.Len(), ss.Len())
	}
}

// TestMinSamplesBeyondInt32: Samples is an int32 column, so a threshold
// above math.MaxInt32 matches no row. Compiled through an int32
// conversion it wrapped instead: 1<<31 and 1<<32 became "any" and
// 1<<32+1 became minsamples=1 (core.ParseQuery lets all three through).
func TestMinSamplesBeyondInt32(t *testing.T) {
	st := equivStore(500)
	sampled := len(st.baselineSelect(Filter{MinSamples: 1}))
	ss := NewShardSet(splitParts(st, []int{200}))
	for _, tc := range []struct {
		min, want int
	}{
		{0, 500}, {1, sampled}, {math.MaxInt32, 0},
		{1 << 31, 0}, {1 << 32, 0}, {1<<32 + 1, 0}, {math.MaxInt64, 0},
		{-1, 500}, {-1 << 32, 500}, {-1<<32 + 1, 500}, // a negative threshold is "any", wrapped or not
	} {
		for _, f := range []Filter{{MinSamples: tc.min}, {Cluster: "ranger", MinSamples: tc.min}} {
			want := tc.want
			if f.Cluster != "" {
				want = len(st.baselineSelect(f)) // the row loop compares ints
			}
			if got := ss.Scan(f).Len(); got != want {
				t.Errorf("%+v selects %d rows, want %d", f, got, want)
			}
			if got := ss.Aggregate(MetricCPUIdle, f).N; got != want {
				t.Errorf("%+v aggregates %d rows, want %d", f, got, want)
			}
		}
	}
}
