package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// historyStore is the benchmark's history (bench/fixtures.go genHistory)
// restated: jobs spread evenly over days of job ends on one cluster, 500
// users drawn Zipf(1.2), six apps in three sciences, log-normal wall
// times — about one job in twelve shorter than a sampling interval, so
// with Samples 0 — and every metric column seeded. Sorted by end day, as
// a data directory holds it.
func historyStore(jobs, days int) *Store {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, 499)
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm"}
	sciences := []string{"Chemistry", "Physics", "Biology"}
	st := New()
	for i := 0; i < jobs; i++ {
		app := rng.Intn(len(apps))
		wall := min(max(int64(300*math.Exp(rng.NormFloat64()*1.1+2.2)), 120), 172800)
		end := (15000+int64(i)*int64(days)/int64(jobs))*86400 + rng.Int63n(86400)
		noise := func() float64 { return math.Exp(rng.NormFloat64() * 0.3) }
		status := "COMPLETED"
		if rng.Float64() < 0.07 {
			status = "FAILED"
		}
		r := JobRecord{
			JobID: int64(1000000 + i), Cluster: "ranger", User: fmt.Sprintf("user%04d", zipf.Uint64()),
			App: apps[app], Science: sciences[app/2], Nodes: 1 << rng.Intn(7),
			Submit: end - wall - rng.Int63n(7200), Start: end - wall, End: end,
			Status: status, Samples: int(wall / 600),
			CPUIdleFrac: math.Min(0.99, 0.2*noise()), CPUUserFrac: 0.7 * noise(), CPUSysFrac: 0.05 * noise(),
			MemUsedGB: 12 * noise(), MemUsedMaxGB: 20 * noise(), FlopsGF: 2.5 * noise(),
			ScratchWriteMB: 2 * noise(), WorkWriteMB: 0.05 * noise(), ReadMB: 0.4 * noise(),
			IBTxMB: 20 * noise(), IBRxMB: 20 * noise(), LnetTxMB: 0.8 * noise(),
		}
		st.Add(r)
	}
	st.ReorderByEndDay()
	return st
}

// historyParts is historyStore cut into its day shards' columns, from
// which any number of fresh sets can be made.
func historyParts(tb testing.TB, jobs, days int) []*Columns {
	tb.Helper()
	_, cols := historyStore(jobs, days).partitionByEndDay()
	if len(cols) < days {
		tb.Fatalf("fixture spans %d day shards, want >= %d", len(cols), days)
	}
	return cols
}

// TestMemoFirstTouchRace: sixteen goroutines put overlapping aggregates,
// group-bys and scans to one set nothing has queried, so the first
// touches of every slot collide; each answer must be the one a set
// queried by a single goroutine gives. `make test-store` runs it under
// the race detector at one, two and four cores.
func TestMemoFirstTouchRace(t *testing.T) {
	cols := historyParts(t, 12_000, 12)
	serial, racing := NewShardSet(cols), NewShardSet(cols)
	first, last := serial.ShardAt(2).Info(), serial.ShardAt(9).Info()
	base := Filter{Cluster: "ranger", MinSamples: 1}
	window := base
	window.EndAfter, window.EndBefore = first.MinEnd+1800, last.MaxEnd-1800 // both edge shards cut
	filters := []Filter{base, window, {Cluster: "ranger"}, {User: "user0001", MinSamples: 1}}
	metrics := []Metric{MetricCPUIdle, MetricFlops, MetricMemUsed}

	type answer struct {
		agg    Agg
		groups []Group
		n      int
		hours  float64
		vals   []float64
	}
	ask := func(ss *ShardSet, q int) answer {
		f, m := filters[q%len(filters)], metrics[q/len(filters)%len(metrics)]
		sel := ss.Scan(f)
		return answer{
			agg:    aggParallel(ss, m, f, 1+q%3),
			groups: ss.GroupBy(GroupKey(q%3), metrics[:1+q%len(metrics)], f),
			n:      sel.Len(), hours: sel.NodeHours(), vals: sel.Values(m),
		}
	}
	const queries = 24
	want := make([]answer, queries)
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
				got := ask(racing, q)
				if !aggBitsEqual(got.agg, want[q].agg) || !groupsBitsEqual(got.groups, want[q].groups) || got.n != want[q].n ||
					math.Float64bits(got.hours) != math.Float64bits(want[q].hours) || !floatsBitsEqual(got.vals, want[q].vals) {
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

// TestMemoWarmAllocations is the ceiling on what a remembered answer
// allocates: a broad aggregate over every day shard a fixed handful of
// objects (one row-id list per shard before), and a broad group-by the
// same number whether the rows sit in 15 shards or in 120.
func TestMemoWarmAllocations(t *testing.T) {
	base := Filter{Cluster: "ranger", MinSamples: 1}
	sets := map[int]*ShardSet{}
	for _, days := range []int{15, 120} {
		ss := NewShardSet(historyParts(t, 24_000, days))
		ss.Aggregate(MetricCPUIdle, base)
		ss.GroupBy(ByApp, KeyMetrics(), base)
		before := ss.PartitionUse()
		ss.Aggregate(MetricCPUIdle, base)
		ss.GroupBy(ByApp, KeyMetrics(), base)
		if use := ss.PartitionUse(); use.Walked != before.Walked || use.Remembered-before.Remembered != 2*int64(ss.NumShards()) {
			t.Fatalf("%d days: the second pass was not all remembered: %+v then %+v", days, before, use)
		}
		sets[days] = ss
	}
	if got := testing.AllocsPerRun(20, func() { sets[120].Aggregate(MetricCPUIdle, base) }); got > 16 {
		t.Errorf("a remembered aggregate over %d shards allocates %.0f objects, want <= 16", sets[120].NumShards(), got)
	}
	few := testing.AllocsPerRun(20, func() { sets[15].GroupBy(ByApp, KeyMetrics(), base) })
	many := testing.AllocsPerRun(20, func() { sets[120].GroupBy(ByApp, KeyMetrics(), base) })
	if many != few {
		t.Errorf("a remembered group-by allocates %.0f objects over %d shards and %.0f over %d: something is allocated per partition",
			many, sets[120].NumShards(), few, sets[15].NumShards())
	}
}

// TestMemoLiveSize fills every slot the daemon's traffic can reach on
// the benchmark's history — 200 000 jobs over 120 days; the §4.1
// population through all twelve metrics, the three keys the dashboards
// group by, the scans — and measures what the memo keeps alive. The key
// space is closed, so this is its ceiling, and the reason it needs no
// size option: 6 MB against the 32 MB of columns it describes.
func TestMemoLiveSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200 000-row history")
	}
	cols := historyParts(t, 200_000, 120)
	base := Filter{Cluster: "ranger", MinSamples: 1}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ss := NewShardSet(cols) // the shards and their posting lists, not the memo
	before := heap()
	ss.Scan(base).NodeHours()
	for _, m := range AllMetrics() {
		ss.Aggregate(m, base)
	}
	for _, k := range []GroupKey{ByUser, ByApp, ByScience} {
		ss.GroupBy(k, AllMetrics(), base)
	}
	live := float64(heap()-before) / (1 << 20)
	runtime.KeepAlive(ss)
	t.Logf("memo of %d shards, %d rows: %.2f MB live (%d B of empty slots a population)", ss.NumShards(), ss.Len(), live, unsafe.Sizeof(popMemo{}))
	if live > 6 {
		t.Errorf("the memo keeps %.2f MB alive, want <= 6 MB", live)
	}
}

// TestMemoFillPanicRetries: a memo fill that panics leaves its slot
// empty, for the next caller to fill, instead of remembering whatever
// the fill had got to. Each case cuts one column of one shard short, so
// that the first fill of one kind of slot index-panics; restores it; and
// asks again, twice (the first retry may fill the slot, the second
// reads it): both must answer what a fresh set answers, bit for bit.
func TestMemoFillPanicRetries(t *testing.T) {
	cols := historyParts(t, 3000, 4)
	metrics := []Metric{MetricCPUIdle}
	cases := []struct {
		name string
		cut  func(c *Columns) (restore func())
		warm func(ss *ShardSet) // fills what the case does not cut
		ask  func(ss *ShardSet) any
	}{
		{"sampled rows", func(c *Columns) func() { return cutShort(&c.Samples) }, nil,
			func(ss *ShardSet) any {
				sel := ss.Scan(Filter{MinSamples: 1})
				return []any{sel.Len(), sel.Values(MetricFlops)}
			}},
		{"node-hour total", func(c *Columns) func() { return cutShort(&c.weight) }, nil,
			func(ss *ShardSet) any { return ss.Scan(Filter{}).NodeHours() }},
		{"aggregate partial", func(c *Columns) func() { return cutShort(&c.Metrics[MetricPos(MetricCPUIdle)]) }, nil,
			func(ss *ShardSet) any { return ss.Aggregate(MetricCPUIdle, Filter{}) }},
		{"group base", func(c *Columns) func() { return cutShort(&c.App.Codes) }, nil,
			func(ss *ShardSet) any { return ss.GroupBy(ByApp, metrics, Filter{}) }},
		{"group metric sums", func(c *Columns) func() { return cutShort(&c.Metrics[MetricPos(MetricFlops)]) },
			func(ss *ShardSet) { ss.GroupBy(ByApp, metrics, Filter{}) },
			func(ss *ShardSet) any { return ss.GroupBy(ByApp, []Metric{MetricFlops}, Filter{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := NewShardSet(cols)
			if tc.warm != nil {
				tc.warm(ss)
			}
			restore := tc.cut(ss.ShardAt(1).c)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the cut column did not make the fill panic")
					}
				}()
				tc.ask(ss)
			}()
			restore()
			want := fmt.Sprint(tc.ask(NewShardSet(cols)))
			for retry := 1; retry <= 2; retry++ {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("retry %d after the panicked fill: %v", retry, p)
						}
					}()
					if got := fmt.Sprint(tc.ask(ss)); got != want {
						t.Errorf("retry %d after a panicked fill:\n got %.200s\nwant %.200s", retry, got, want)
					}
				}()
			}
		})
	}
}

// cutShort shortens a column to one row and returns what restores it.
func cutShort[T any](col *[]T) (restore func()) {
	saved := *col
	*col = saved[:1:1]
	return func() { *col = saved }
}
