package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/store"
)

// countingReader counts the whole-realm aggregates a realm issues, per
// metric: the scans the fleet-mean memo exists to run once.
type countingReader struct {
	store.Reader
	base store.Filter

	mu    sync.Mutex
	calls map[store.Metric]int
}

func (c *countingReader) Aggregate(m store.Metric, f store.Filter) store.Agg {
	if f == c.base {
		c.mu.Lock()
		c.calls[m]++
		c.mu.Unlock()
	}
	return c.Reader.Aggregate(m, f)
}

// TestFleetMeanMemoConcurrent hammers one fresh realm from 16 goroutines
// (run under -race): every fleet mean anyone observes — directly, as a
// query's denominator, inside a profile — is bit for bit the serial
// aggregate's, and each metric's scan ran exactly once however many
// first callers raced for it.
func TestFleetMeanMemoConcurrent(t *testing.T) {
	shared, _ := realms(t)
	counter := &countingReader{Reader: shared.Store, base: shared.JobFilter(), calls: map[store.Metric]int{}}
	r := NewRealm(cluster.RangerConfig().Scaled(128), counter, shared.Series)

	want := map[store.Metric]uint64{}
	for _, m := range store.AllMetrics() {
		want[m] = math.Float64bits(shared.Store.Aggregate(m, shared.JobFilter()).Mean)
	}
	same := func(what string, m store.Metric, got float64) {
		if math.Float64bits(got) != want[m] {
			t.Errorf("%s %s = %v, want bits of %v", what, m, got, math.Float64frombits(want[m]))
		}
	}

	const workers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			<-start
			all := store.AllMetrics()
			for k := range all {
				m := all[(k+w)%len(all)] // each goroutine starts on a different slot
				same("FleetMean", m, r.FleetMean(m))
			}
			res := r.RunQuery(Query{GroupBy: store.ByApp, Metrics: store.KeyMetrics(), Filter: store.Filter{MinSamples: 1}, Limit: 5})
			for m, v := range res.FleetMeans {
				same("RunQuery fleet mean", m, v)
			}
			for _, p := range r.TopUserProfiles(2) {
				for m, norm := range p.Normalized {
					if fleet := math.Float64frombits(want[m]); math.Float64bits(norm) != math.Float64bits(p.Raw[m]/fleet) {
						t.Errorf("profile %s: normalized %s = %v, want raw/fleet = %v", p.Key, m, norm, p.Raw[m]/fleet)
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	for _, m := range store.AllMetrics() {
		if counter.calls[m] != 1 {
			t.Errorf("%s aggregated over the whole realm %d times, want exactly once", m, counter.calls[m])
		}
	}
}

// panicsOnce is a Reader whose first Aggregate panics.
type panicsOnce struct {
	store.Reader
	fired atomic.Bool
}

func (p *panicsOnce) Aggregate(m store.Metric, f store.Filter) store.Agg {
	if p.fired.CompareAndSwap(false, true) {
		panic("the first aggregate fails")
	}
	return p.Reader.Aggregate(m, f)
}

// TestFleetMeanPanicRetries: a fleet-mean fill that panics leaves its
// slot empty, so the next caller computes the mean — instead of every
// later caller of the generation reading a zero: no normalization in
// /api/v1/query, a fleet efficiency of 1, null profiles.
func TestFleetMeanPanicRetries(t *testing.T) {
	shared, _ := realms(t)
	r := NewRealm(cluster.RangerConfig().Scaled(128), &panicsOnce{Reader: shared.Store}, shared.Series)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first FleetMean did not panic")
			}
		}()
		r.FleetMean(store.MetricCPUIdle)
	}()
	want := shared.FleetMean(store.MetricCPUIdle)
	if got := r.FleetMean(store.MetricCPUIdle); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("FleetMean after a panicked fill = %v, want %v", got, want)
	}
	if got, want := r.FleetEfficiency(), shared.FleetEfficiency(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("FleetEfficiency after a panicked fill = %v, want %v", got, want)
	}
}
