package store_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/store"
)

// TestSelectionConsumers holds everything a Selection hands out — Len,
// Values, NodeHours, Records — to the reference, bit for bit, on one
// shard and on two different cuts into several, for selections that are
// every row, a scattered subset, empty, and a time window that prunes
// whole shards. One Scan feeds every consumer, from several goroutines
// at once: a Selection is read-only.
func TestSelectionConsumers(t *testing.T) {
	rows := equivRows(5000)
	st := storeOf(rows)
	filters := map[string]store.Filter{
		"all-rows":    {},
		"scattered":   {Cluster: "ranger", MinSamples: 1},
		"narrow":      {User: "ub", App: "amber"},
		"empty-value": {Cluster: "nonesuch"},
		"empty-scan":  {MinSamples: 10},
		"time-pruned": {EndAfter: 60_000, EndBefore: 110_000},
	}
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops, store.MetricRead}
	for _, cuts := range [][]int{nil, {1000, 2500, 4000}, {1, 17, 2048, 4999}} {
		ss, ref := st.AsSet(), cut(rows, cuts)
		if cuts != nil {
			ss = setOf(ref)
			if store.PrunedParts(ss, filters["time-pruned"]) == 0 {
				t.Fatalf("cuts %v: the time window prunes no shard; the fixture does not exercise pruning", cuts)
			}
		}
		for name, f := range filters {
			label := fmt.Sprintf("cuts %v %s", cuts, name)
			sel := ss.Scan(f)
			wantRecs := ref.Records(f)
			if sel.Len() != len(wantRecs) {
				t.Fatalf("%s: Len = %d, reference selects %d", label, sel.Len(), len(wantRecs))
			}
			if got := sel.Records(); !reference.Same(got, wantRecs) {
				t.Fatalf("%s: Records (%d rows, nil %v) differ from the reference's %d", label, len(got), got == nil, len(wantRecs))
			}
			if got, want := sel.NodeHours(), ref.NodeHours(f); !reference.Same(got, want) {
				t.Errorf("%s: NodeHours = %v, want %v", label, got, want)
			}
			var wg sync.WaitGroup
			for _, m := range metrics {
				wg.Add(1)
				go func(m store.Metric) {
					defer wg.Done()
					if got, want := sel.Values(m), ref.Values(m, f); !reference.Same(got, want) {
						t.Errorf("%s: Values(%s) diverges from the reference (%d vs %d values)", label, m, len(got), len(want))
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
		ss := store.FloorStore(n).AsSet()
		sel := ss.Scan(store.Filter{Cluster: "ranger", MinSamples: 1})
		if sel.Len() != n {
			t.Fatalf("broad filter selects %d of %d rows", sel.Len(), n)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		vals := sel.Values(store.MetricFlops)
		runtime.ReadMemStats(&after)
		if len(vals) != n {
			t.Fatalf("Values returned %d of %d rows", len(vals), n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*n+1024 {
			t.Errorf("Values allocated %d B for %d rows (%.1f B/row), want <= 8 B/row + 1 KiB", got, n, float64(got)/n)
		}
	})
}

// TestMinSamplesBeyondInt32: Samples is an int32 column, so a threshold
// above math.MaxInt32 matches no row. Compiled through an int32
// conversion it wrapped instead: 1<<31 and 1<<32 became "any" and
// 1<<32+1 became minsamples=1 (the query parser lets all three through).
func TestMinSamplesBeyondInt32(t *testing.T) {
	rows := equivRows(500)
	ref := reference.Parts{rows}
	sampled := len(ref.Select(store.Filter{MinSamples: 1}))
	ss := setOf(cut(rows, []int{200}))
	for _, tc := range []struct {
		min, want int
	}{
		{0, 500}, {1, sampled}, {math.MaxInt32, 0},
		{1 << 31, 0}, {1 << 32, 0}, {1<<32 + 1, 0}, {math.MaxInt64, 0},
		{-1, 500}, {-1 << 32, 500}, {-1<<32 + 1, 500}, // a negative threshold is "any", wrapped or not
	} {
		for _, f := range []store.Filter{{MinSamples: tc.min}, {Cluster: "ranger", MinSamples: tc.min}} {
			want := tc.want
			if f.Cluster != "" {
				want = len(ref.Select(f)) // the reference compares ints
			}
			if got := ss.Scan(f).Len(); got != want {
				t.Errorf("%+v selects %d rows, want %d", f, got, want)
			}
			if got := ss.Aggregate(store.MetricCPUIdle, f).N; got != want {
				t.Errorf("%+v aggregates %d rows, want %d", f, got, want)
			}
		}
	}
}
