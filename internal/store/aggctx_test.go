package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

func aggCtxFixture(n int) *Store {
	st := New()
	for i := 0; i < n; i++ {
		r := JobRecord{
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
		r.CPUIdleFrac = float64(i%10) / 10
		st.Add(r)
	}
	return st
}

// TestAggregateParallelCtx: with a live context the result is
// bit-identical to the row baseline; with a cancelled context the
// call reports the cancellation instead of a silent partial result.
func TestAggregateParallelCtx(t *testing.T) {
	st := aggCtxFixture(10000)
	want := st.baselineAggregate(MetricCPUIdle, Filter{})
	ss := st.AsSet()

	got, err := ss.AggregateParallelCtx(context.Background(), MetricCPUIdle, Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ctx aggregate %+v != plain %+v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ss.AggregateParallelCtx(ctx, MetricCPUIdle, Filter{}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled aggregate err = %v, want context.Canceled", err)
	}

	// A nil context degrades to the uncancellable path.
	got, err = ss.AggregateParallelCtx(nil, MetricCPUIdle, Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nil-ctx aggregate %+v != plain %+v", got, want)
	}
}

// TestAggregateMinMaxIgnoresNaN: a NaN metric value is never an
// extremum and never hides one, wherever it sits — first row of the
// selection, first row of a partition, or first row of what used to be
// a 4096-row chunk, whose min/max were seeded from it.
func TestAggregateMinMaxIgnoresNaN(t *testing.T) {
	const n = 3 * 4096
	for _, nanRow := range []int{0, 4096} {
		st := New()
		for i := 0; i < n; i++ {
			r := JobRecord{
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
			st.Add(r)
		}
		readers := map[string]Reader{
			"one shard":   st.AsSet(),
			"many shards": NewShardSet(splitParts(st, []int{100, 4096, 4100, 9000})),
		}
		for name, r := range readers {
			for entry, agg := range map[string]Agg{
				"Aggregate":            r.Aggregate(MetricCPUIdle, Filter{}),
				"AggregateParallelCtx": aggParallel(r, MetricCPUIdle, Filter{}, 4),
			} {
				if agg.N != n || agg.Min != 0.01 || agg.Max != 0.9 {
					t.Errorf("NaN at row %d, %s, %s: N %d min %v max %v, want %d 0.01 0.9",
						nanRow, name, entry, agg.N, agg.Min, agg.Max, n)
				}
			}
		}
	}
}
