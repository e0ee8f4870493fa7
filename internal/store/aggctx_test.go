package store_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/store"
)

func aggCtxRows(n int) []store.JobRecord {
	rows := make([]store.JobRecord, n)
	for i := range rows {
		rows[i] = store.JobRecord{
			JobID:   int64(i + 1),
			Cluster: "ranger",
			User:    fmt.Sprintf("u%d", i%5),
			App:     "namd",
			Nodes:   1 + i%8,
			Start:   int64(100 * i),
			End:     int64(100*i + 3600),
			Status:  "completed",
			Samples: 2,
		}
		rows[i].CPUIdleFrac = float64(i%10) / 10
	}
	return rows
}

// TestAggregateParallelCtx: with a live context the result is
// bit-identical to the reference; with a cancelled context the call
// reports the cancellation instead of a silent partial result.
func TestAggregateParallelCtx(t *testing.T) {
	rows := aggCtxRows(10000)
	want := reference.Parts{rows}.Aggregate(store.MetricCPUIdle, store.Filter{})
	ss := storeOf(rows).AsSet()

	got, err := ss.AggregateParallelCtx(context.Background(), store.MetricCPUIdle, store.Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reference.Same(got, want) {
		t.Fatalf("ctx aggregate %+v != reference %+v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ss.AggregateParallelCtx(ctx, store.MetricCPUIdle, store.Filter{}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled aggregate err = %v, want context.Canceled", err)
	}

	// A nil context degrades to the uncancellable path.
	got, err = ss.AggregateParallelCtx(nil, store.MetricCPUIdle, store.Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reference.Same(got, want) {
		t.Fatalf("nil-ctx aggregate %+v != reference %+v", got, want)
	}
}

// TestAggregateMinMaxIgnoresNaN: a NaN metric value is never an
// extremum and never hides one, wherever it sits — first row of the
// selection, first row of a partition, or first row of what used to be
// a 4096-row chunk, whose min/max were seeded from it.
func TestAggregateMinMaxIgnoresNaN(t *testing.T) {
	const n = 3 * 4096
	for _, nanRow := range []int{0, 4096} {
		rows := make([]store.JobRecord, n)
		for i := range rows {
			r := store.JobRecord{
				JobID: int64(i + 1), Cluster: "ranger", User: "u", App: "namd", Nodes: 1,
				Start: int64(10 * i), End: int64(10*i + 3600), Status: "completed", Samples: 1,
			}
			r.CPUIdleFrac = 0.5
			switch i {
			case nanRow:
				r.CPUIdleFrac = math.NaN()
			case nanRow + 10:
				r.CPUIdleFrac = 0.01
			case nanRow + 20:
				r.CPUIdleFrac = 0.9
			}
			rows[i] = r
		}
		readers := map[string]store.Reader{
			"one shard":   storeOf(rows).AsSet(),
			"many shards": setOf(cut(rows, []int{100, 4096, 4100, 9000})),
		}
		for name, r := range readers {
			for entry, agg := range map[string]store.Agg{
				"Aggregate":            r.Aggregate(store.MetricCPUIdle, store.Filter{}),
				"AggregateParallelCtx": aggParallel(r, store.MetricCPUIdle, store.Filter{}, 4),
			} {
				if agg.N != n || agg.Min != 0.01 || agg.Max != 0.9 {
					t.Errorf("NaN at row %d, %s, %s: N %d min %v max %v, want %d 0.01 0.9",
						nanRow, name, entry, agg.N, agg.Min, agg.Max, n)
				}
			}
		}
	}
}
