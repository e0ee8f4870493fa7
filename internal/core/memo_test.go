package core

import (
	"fmt"
	"math"
	"math/rand"
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

// scanCounter counts the whole-realm scans and group-bys a realm
// issues: what Characterize's fill runs.
type scanCounter struct {
	store.Reader
	base store.Filter

	scans, groupBys atomic.Int64
}

func (c *scanCounter) Scan(f store.Filter) store.Selection {
	if f == c.base {
		c.scans.Add(1)
	}
	return c.Reader.Scan(f)
}

func (c *scanCounter) GroupBy(k store.GroupKey, ms []store.Metric, f store.Filter) []store.Group {
	if f == c.base {
		c.groupBys.Add(1)
	}
	return c.Reader.GroupBy(k, ms, f)
}

// TestCharacterizeMemoConcurrent hammers one fresh realm's Characterize
// from 16 goroutines (run under -race): one fill — one scan and the two
// share group-bys — however many first callers raced for it, everyone
// handed the same value, bit for bit the serial result.
func TestCharacterizeMemoConcurrent(t *testing.T) {
	shared, _ := realms(t)
	cc := cluster.RangerConfig().Scaled(128)
	want := fmt.Sprintf("%#v", NewRealm(cc, shared.Store, shared.Series).characterize())
	counter := &scanCounter{Reader: shared.Store, base: shared.JobFilter()}
	r := NewRealm(cc, counter, shared.Series)

	const workers = 16
	got := make([]Characterization, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = r.Characterize()
		}(w)
	}
	close(start)
	wg.Wait()

	if s, g := counter.scans.Load(), counter.groupBys.Load(); s != 1 || g != 2 {
		t.Errorf("%d whole-realm scans and %d group-bys, want one fill: 1 and 2", s, g)
	}
	for w, c := range got {
		if s := fmt.Sprintf("%#v", c); s != want {
			t.Fatalf("worker %d got %s\nwant %s", w, s, want)
		}
		if &c.SizeBuckets[0] != &got[0].SizeBuckets[0] || &c.AppShare[0] != &got[0].AppShare[0] {
			t.Errorf("worker %d was handed a characterization of its own", w)
		}
	}
}

// TestPersistenceMemoTravelsWithSeries: a realm computes its persistence
// table once, under 16 concurrent first callers of its own and 16 of a
// realm that adopted its series before either filled anything (run
// under -race), and the table is a fresh PersistenceFromSeries' bit for
// bit. AdoptSeries shares the table by pointer; a NewRealm over other
// samples computes its own; an error is remembered as a table is.
func TestPersistenceMemoTravelsWithSeries(t *testing.T) {
	shared, other := realms(t)
	cc := cluster.RangerConfig().Scaled(128)
	fresh := func(series []store.SystemSample) string {
		tab, err := PersistenceFromSeries(series)
		return fmt.Sprintf("%#v %v", tab, err)
	}

	prev := NewRealm(cc, shared.Store, shared.Series)
	next := NewRealm(cc, shared.Store, nil)
	next.AdoptSeries(prev)
	const workers = 16
	tabs := make([]*PersistenceTable, 2*workers)
	var wg sync.WaitGroup
	wg.Add(len(tabs))
	for w := range tabs {
		go func(w int) {
			defer wg.Done()
			r := prev
			if w%2 == 1 {
				r = next
			}
			tabs[w], _ = r.Persistence()
		}(w)
	}
	wg.Wait()
	for w, tab := range tabs {
		if tab == nil || tab != tabs[0] {
			t.Fatalf("caller %d got table %p, caller 0 %p: the adopted series did not share one fill", w, tab, tabs[0])
		}
	}
	if s := fmt.Sprintf("%#v %v", tabs[0], error(nil)); s != fresh(shared.Series) {
		t.Errorf("memoized table %s differs from a fresh one", s)
	}
	if &next.Series[0] != &shared.Series[0] {
		t.Error("AdoptSeries did not take the previous realm's samples")
	}

	own := NewRealm(cc, shared.Store, other.Series)
	if tab, err := own.Persistence(); tab == tabs[0] || fmt.Sprintf("%#v %v", tab, err) != fresh(other.Series) {
		t.Error("a realm over other samples did not compute its own table")
	}

	short := NewRealm(cc, shared.Store, shared.Series[:5])
	_, err1 := short.Persistence()
	_, err2 := short.Persistence()
	if err1 == nil || err1 != err2 {
		t.Errorf("a too-short series: errors %v then %v, want one remembered error", err1, err2)
	}
}

var (
	sinkCharacterization Characterization
	sinkTable            *PersistenceTable
)

// benchRealm is a synthetic realm of n jobs over 120 day shards, its
// runtimes lognormal around the benchmark fixture's, loaded from disk
// as the daemon loads one.
func benchRealm(b *testing.B, n int) *Realm {
	rng := rand.New(rand.NewSource(11))
	st := store.New()
	apps := []string{"namd", "amber", "gromacs", "lammps", "wrf", "vasp", "enzo", "milc"}
	day0 := int64(15000) * store.SecondsPerDay
	for i := 0; i < n; i++ {
		wall := int64(300 * math.Exp(rng.NormFloat64()*1.1+2.2))
		wall = min(max(wall, 120), 172800)
		end := day0 + rng.Int63n(120*store.SecondsPerDay)
		st.Add(store.JobRecord{
			JobID: int64(i), Cluster: "ranger", User: fmt.Sprintf("user%03d", rng.Intn(400)),
			App: apps[i%len(apps)], Science: apps[i%4], Nodes: 1 << rng.Intn(7),
			Submit: end - wall - 60, Start: end - wall, End: end, Status: "COMPLETED",
			Samples: int(wall/600) + 1,
		})
	}
	dir := b.TempDir()
	if err := store.WriteShardDir(dir, st); err != nil {
		b.Fatal(err)
	}
	set, err := store.LoadShardSet(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	return NewRealm(cluster.RangerConfig(), set, nil)
}

// BenchmarkCharacterizeFill times what the Characterize memo saves: the
// fill on a fresh realm over the same shards, 200 000 jobs, as a swap
// leaves it (the shards adopted, with what they remember).
func BenchmarkCharacterizeFill(b *testing.B) {
	base := benchRealm(b, 200_000)
	cc := cluster.RangerConfig()
	b.ResetTimer()
	for range b.N {
		sinkCharacterization = NewRealm(cc, base.Store, nil).Characterize()
	}
}

// BenchmarkPersistenceFill times one persistence table over the shared
// 30-day series: what an admin render computed four times before the
// table was remembered with its series.
func BenchmarkPersistenceFill(b *testing.B) {
	shared, _ := realms(b)
	b.ResetTimer()
	for range b.N {
		sinkTable, _ = NewRealm(cluster.RangerConfig(), shared.Store, shared.Series).Persistence()
	}
}
