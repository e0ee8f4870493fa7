package store_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// flopsRows is one job per value, in order, alternating two users, the
// values as cpu_flops; every job is sampled and weighs one node-hour.
func flopsRows(vals ...float64) []store.JobRecord {
	rows := make([]store.JobRecord, len(vals))
	for i, v := range vals {
		rows[i] = store.JobRecord{
			JobID: int64(i + 1), Cluster: "ranger", User: []string{"ua", "ub"}[i%2], App: "namd",
			Nodes: 1, Samples: 1, Start: int64(3600 * i), End: int64(3600 * (i + 1)),
		}
		rows[i].FlopsGF = v
	}
	return rows
}

// TestHistogramBounds pins the range the histogram kernel takes from the
// partitions' partials to stats.MinMax over the copied values, bit for
// bit, and the histogram to stats.NewHistogram over them: empty
// selections, all-NaN, NaN first and last, ±Inf, a -0/+0 tie across a
// shard boundary either way round, one row; whole populations (read
// from the memo once it fills) and walked ones; asked on a set nothing
// has queried, again, and after an aggregate filled the memo.
func TestHistogramBounds(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name string
		vals []float64
		cuts []int
	}{
		{"one row", []float64{2.5}, nil},
		{"all NaN", []float64{nan, nan, nan}, []int{1}},
		{"NaN first and last", []float64{nan, 3, -2, 0.5, nan}, []int{1, 4}},
		{"NaN alone in the edge shards", []float64{nan, 3, -2, nan}, []int{1, 3}},
		{"±Inf", []float64{inf, 1, -inf, 2}, []int{2}},
		{"+Inf only", []float64{inf, inf}, []int{1}},
		{"+0 then -0", []float64{0, negZero}, []int{1}},
		{"-0 then +0", []float64{negZero, 0}, []int{1}},
		{"max tie", []float64{-1, negZero, 0}, []int{2}},
		{"min tie", []float64{1, 0, negZero}, []int{1}},
		{"one shard", []float64{4, nan, -3, 8, 0}, nil},
	}
	filters := map[string]store.Filter{
		"whole":   {},
		"sampled": {MinSamples: 1},
		"walked":  {User: "ua"},
		"empty":   {User: "nobody"},
		"none":    {MinSamples: 2},
	}
	for _, c := range cases {
		ref := cut(flopsRows(c.vals...), c.cuts)
		for _, order := range []string{"cold", "after an aggregate"} {
			ss := setOf(ref)
			if order == "after an aggregate" {
				for _, f := range filters {
					ss.Aggregate(store.MetricFlops, f)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for name, f := range filters {
					label := fmt.Sprintf("%s, %s, %s, pass %d", c.name, order, name, pass)
					lo, hi := store.Bounds(ss, store.MetricFlops, f)
					wlo, whi := stats.MinMax(ref.Values(store.MetricFlops, f))
					if !reference.Same([2]float64{lo, hi}, [2]float64{wlo, whi}) {
						t.Errorf("%s: bounds [%v, %v], MinMax says [%v, %v]", label, lo, hi, wlo, whi)
					}
					for _, bins := range []int{1, 4} {
						if got, want := histogram(ss, store.MetricFlops, f, bins), ref.Histogram(store.MetricFlops, f, bins); !reference.Same(got, want) {
							t.Errorf("%s, %d bins: histogram %+v, the reference's %+v", label, bins, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHistogramCtxCancel: a histogram whose ctx fires at any of its
// polls — one per partition in each of its two walks, bounds and bins —
// returns the ctx's error and no histogram, on a set nothing has queried
// (bounds folded from the rows) and on one whose memo holds them; a nil
// ctx never cancels.
func TestHistogramCtxCancel(t *testing.T) {
	ref := cut(flopsRows(1, 2, 3, 4, 5, 6), []int{2, 4})
	for _, f := range []store.Filter{{}, {User: "ua"}} {
		warm := setOf(ref)
		want := histogram(warm, store.MetricFlops, f, 4)
		for at := 1; at <= 2*warm.NumShards(); at++ {
			for _, ss := range []*store.ShardSet{setOf(ref), warm} {
				fires := &firesAt{Context: context.Background(), at: at, closed: make(chan struct{})}
				close(fires.closed)
				if h, err := ss.Histogram(fires, store.MetricFlops, f, 4); !errors.Is(err, context.Canceled) || h != nil {
					t.Errorf("%+v, ctx firing at poll %d: %+v, %v; want no histogram and context.Canceled", f, at, h, err)
				}
			}
		}
		if h, err := warm.Histogram(nil, store.MetricFlops, f, 4); err != nil || !reference.Same(h, want) {
			t.Errorf("%+v: a nil ctx histogram returned %+v, %v; want %+v", f, h, err, want)
		}
	}
}

// TestHistogramAllocations: a broad distribution allocates what its
// bins and partition list need, not a copy of the rows it bins — the
// bytes per call are the same whether the selection holds 24 000 rows
// or four times as many over the same 30 day shards.
func TestHistogramAllocations(t *testing.T) {
	const bins = 20
	broad := store.Filter{Cluster: "ranger", MinSamples: 1}
	perCall := func(rows int) uint64 {
		ss := store.NewShardSet(store.HistoryParts(t, rows, 30))
		ask := func() {
			if _, err := ss.Histogram(context.Background(), store.MetricFlops, broad, bins); err != nil {
				t.Fatal(err)
			}
		}
		ask() // fill the memo
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			ask()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	few, many := perCall(24_000), perCall(96_000)
	t.Logf("bytes per broad histogram call: %d at 24k rows, %d at 96k rows", few, many)
	if many > few+256 {
		t.Errorf("a broad histogram allocates %d B per call over 96k rows and %d B over 24k: it grows with the rows", many, few)
	}
	if limit := uint64(16 << 10); many > limit {
		t.Errorf("a broad histogram allocates %d B per call, want <= %d", many, limit)
	}
}
