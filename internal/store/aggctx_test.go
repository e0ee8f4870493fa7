package store

import (
	"context"
	"errors"
	"fmt"
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
	want := st.baselineAggregateParallel(MetricCPUIdle, Filter{}, 4)

	got, err := st.AggregateParallelCtx(context.Background(), MetricCPUIdle, Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ctx aggregate %+v != plain %+v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.AggregateParallelCtx(ctx, MetricCPUIdle, Filter{}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled aggregate err = %v, want context.Canceled", err)
	}

	// A nil context degrades to the uncancellable path.
	got, err = st.AggregateParallelCtx(nil, MetricCPUIdle, Filter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nil-ctx aggregate %+v != plain %+v", got, want)
	}
}
