package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/ingest"
	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// dayStore builds a store whose rows land in exactly days consecutive
// epoch days, perDay rows each, already in day order — the shape the
// shard tests need full control over (appending a day must leave every
// earlier day's rows, and therefore its shard bytes, untouched).
func dayStore(days, perDay int) *store.Store {
	st := store.New()
	for d := 0; d < days; d++ {
		for j := 0; j < perDay; j++ {
			i := d*perDay + j
			r := store.JobRecord{
				JobID:   int64(1000 + i),
				Cluster: "ranger",
				User:    fmt.Sprintf("u%02d", i%9),
				App:     []string{"namd", "amber", "gromacs", "wrf"}[i%4],
				Science: []string{"Chemistry", "Physics"}[i%2],
				Nodes:   1 + i%16,
				Status:  "completed",
				Samples: 1 + i%4,
			}
			r.End = int64(d)*store.SecondsPerDay + int64(3600+60*j)
			r.Start = r.End - 1800
			r.Submit = r.Start - 120
			r.CPUIdleFrac = float64(i%10) / 10
			r.MemUsedGB = float64(i % 13)
			r.FlopsGF = 1.5 * float64(i%9)
			st.Add(r)
		}
	}
	return st
}

// loadOnce is one strict attempt of the reload sequence outside any
// server: the directory through open, against prev.
func loadOnce(dir string, open func(string) (io.ReadCloser, error), prev *Snapshot) (*Snapshot, error) {
	return (&reloader{dir: dir, open: open}).attempt(&trip{}, prev)
}

// TestIncrementalReloadSharing is the incremental-reload invariant
// suite: append one day's shard under a query storm and assert that
// (a) unchanged shards are shared by pointer across generations — the
// previous generation's column arrays, not copies;
// (b) every response served mid-reload is bit-identical to either the
// old generation's answer or the new one's, never a mixture;
// (c) goroutines return to baseline (leakcheck).
func TestIncrementalReloadSharing(t *testing.T) {
	leakcheck.Check(t)
	const perDay = 40
	quality := &ingest.DataQuality{FilesScanned: 9}

	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, perDay), fixtureSeries(30), quality)
	srv := newTestServer(t, dir)
	snapA := srv.Snapshot()
	if snapA.Shards != 3 || snapA.ShardsReused != 0 {
		t.Fatalf("initial snapshot: %d shards (%d reused), want 3 (0)", snapA.Shards, snapA.ShardsReused)
	}
	ssA := snapA.shards

	// The two legitimate generations' bodies: gen A from the live
	// server before the append, gen B from an independent server over
	// the appended corpus.
	dirB := t.TempDir()
	writeDataDir(t, dirB, dayStore(4, perDay), fixtureSeries(30), quality)
	srvB := newTestServer(t, dirB)
	bodyA := make(map[string][]byte, len(chaosTargets))
	bodyB := make(map[string][]byte, len(chaosTargets))
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d", target, status)
		}
		bodyA[target] = body
		if status, body = get(t, srvB, target); status != http.StatusOK {
			t.Fatalf("reference %s: status %d", target, status)
		}
		bodyB[target] = body
	}

	// Query storm across the reload: every 200 body must be exactly one
	// generation's answer.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				target := chaosTargets[(g+i)%len(chaosTargets)]
				status, body := get(t, srv, target)
				if status != http.StatusOK {
					select {
					case errc <- fmt.Errorf("%s: status %d mid-reload", target, status):
					default:
					}
					return
				}
				if !bytes.Equal(body, bodyA[target]) && !bytes.Equal(body, bodyB[target]) {
					select {
					case errc <- fmt.Errorf("%s: mid-reload body matches neither generation", target):
					default:
					}
					return
				}
			}
		}(g)
	}

	// Day 4 lands; the poll picks it up.
	writeDataDir(t, dir, dayStore(4, perDay), fixtureSeries(30), quality)
	reloaded, err := srv.MaybeReload()
	stop.Store(true)
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Error(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded {
		t.Fatal("MaybeReload missed the appended day")
	}

	snapB := srv.Snapshot()
	if snapB.Shards != 4 || snapB.ShardsReused != 3 {
		t.Fatalf("incremental snapshot: %d shards (%d reused), want 4 (3)", snapB.Shards, snapB.ShardsReused)
	}
	ssB := snapB.shards
	for i := 0; i < ssA.NumShards(); i++ {
		old, now := ssA.ShardAt(i), ssB.ShardAt(i)
		if old.ID() != now.ID() {
			t.Fatalf("shard %d changed ID %d -> %d", i, old.ID(), now.ID())
		}
		if old != now {
			t.Errorf("unchanged shard %d re-decoded instead of adopted", old.ID())
		}
		if &old.Columns().JobID[0] != &now.Columns().JobID[0] {
			t.Errorf("shard %d column arrays copied instead of pointer-shared", old.ID())
		}
	}

	// Post-reload the live server answers bit-identically to the
	// reference server that cold-loaded the full corpus.
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("post-reload %s: status %d", target, status)
		}
		if !bytes.Equal(body, bodyB[target]) {
			t.Errorf("post-reload %s diverges from cold full load", target)
		}
	}
}

// BenchmarkIncrementalReload compares a full snapshot load against the
// incremental path after a one-day append on a ~90-day shard history.
// bench-store greps this name; the ratio backs the O(1 day) reload
// acceptance criterion enforced by TestIncrementalReloadSpeedupFloor.
func BenchmarkIncrementalReload(b *testing.B) {
	const days, perDay = 90, 150
	dir := b.TempDir()
	writeDataDir(b, dir, dayStore(days, perDay), fixtureSeries(8), nil)
	base, err := loadOnce(dir, osOpen, nil)
	if err != nil {
		b.Fatal(err)
	}
	// One new day lands; history shards are rewritten byte-identically.
	writeDataDir(b, dir, dayStore(days+1, perDay), fixtureSeries(8), nil)

	b.Run("full-load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loadOnce(dir, osOpen, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := loadOnce(dir, osOpen, base)
			if err != nil {
				b.Fatal(err)
			}
			if snap.ShardsReused != days {
				b.Fatalf("reused %d shards, want %d", snap.ShardsReused, days)
			}
		}
	})
}

// TestIncrementalReloadSpeedupFloor is the executable form of the
// incremental-reload acceptance criterion: after appending one day to a
// 90-day history, reloading against the previous generation must be at
// least 5x faster than a cold full load.
func TestIncrementalReloadSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("90-day load comparison in -short mode")
	}
	const days, perDay = 90, 150
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(days, perDay), fixtureSeries(8), nil)
	base, err := loadOnce(dir, osOpen, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeDataDir(t, dir, dayStore(days+1, perDay), fixtureSeries(8), nil)

	// Each side is the minimum ns/op of five interleaved rounds, each
	// starting from a collected heap: noise on a shared box only ever
	// slows a round down, so it takes five noisy rounds of one side to
	// move the verdict. (At three rounds the measured ratio sat at
	// 5.0-6.9x and one unrelated run read 4.8x.)
	load := func(prev *Snapshot) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := loadOnce(dir, osOpen, prev); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	full, incr := int64(math.MaxInt64), int64(math.MaxInt64)
	for round := 0; round < 5; round++ {
		runtime.GC()
		full = min(full, load(nil))
		runtime.GC()
		incr = min(incr, load(base))
	}
	ratio := float64(full) / float64(incr)
	t.Logf("full %v ns/op, incremental %v ns/op, speedup %.1fx", full, incr, ratio)
	if ratio < 5 {
		t.Errorf("one-day append reload only %.1fx faster than full load, want >= 5x", ratio)
	}
}

// TestIncrementalReloadOpensOneShard is the deterministic half of the
// speedup claim: after a one-day append on a 90-day history, a reload
// against the previous generation opens exactly the manifest, the new
// day's shard and series.jsonl — every other shard is adopted, unread.
func TestIncrementalReloadOpensOneShard(t *testing.T) {
	const days, perDay = 90, 20
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(days, perDay), fixtureSeries(8), nil)
	base, err := loadOnce(dir, osOpen, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeDataDir(t, dir, dayStore(days+1, perDay), fixtureSeries(8), nil)

	var opened []string
	open := func(path string) (io.ReadCloser, error) {
		opened = append(opened, filepath.Base(path))
		return osOpen(path)
	}
	snap, err := loadOnce(dir, open, base)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards != days+1 || snap.ShardsReused != days {
		t.Errorf("%d shards, %d reused; want %d, %d", snap.Shards, snap.ShardsReused, days+1, days)
	}
	sort.Strings(opened)
	want := []string{store.ManifestFile, "series.jsonl", store.ShardFileName(days)} // day IDs are 0..days
	if !reflect.DeepEqual(opened, want) {
		t.Errorf("incremental reload opened %v, want exactly %v", opened, want)
	}
}

// TestReloadServesNewGenerationFleetMeans pins why the fleet-mean memo
// needs no invalidation: it hangs off the realm, and a reload builds a
// new realm. The same query before and after an appended day must
// report each generation's own denominators, equal bit for bit to a
// naive weighted mean over that generation's rows — running sums per
// end day, added in day order (the rows are day-ordered).
func TestReloadServesNewGenerationFleetMeans(t *testing.T) {
	const target = "/api/v1/query?group=app&metrics=cpu_idle,mem_used,cpu_flops"
	naive := func(st *store.Store) map[string]float64 {
		out := map[string]float64{}
		recs := st.AsSet().Scan(store.Filter{Cluster: "ranger", MinSamples: 1}).Records()
		for _, m := range []store.Metric{store.MetricCPUIdle, store.MetricMemUsed, store.MetricFlops} {
			var sw, swx, daySW, daySWX float64
			var day int64
			for _, rec := range recs {
				if d := store.EpochDay(rec.End); d != day {
					sw, swx = sw+daySW, swx+daySWX
					day, daySW, daySWX = d, 0, 0
				}
				daySW += rec.NodeHours()
				daySWX += rec.NodeHours() * rec.Value(m)
			}
			out[string(m)] = (swx + daySWX) / (sw + daySW)
		}
		return out
	}
	fleetMeans := func(srv *Server) map[string]float64 {
		t.Helper()
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, status, body)
		}
		var res struct {
			FleetMeans map[string]float64 `json:"fleet_means"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res.FleetMeans
	}
	check := func(gen string, got, want map[string]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: fleet_means %v, want %v", gen, got, want)
		}
		for m, w := range want {
			if math.Float64bits(got[m]) != math.Float64bits(w) {
				t.Errorf("%s: fleet mean of %s = %v, want %v (naive scan of that generation)", gen, m, got[m], w)
			}
		}
	}

	dir := t.TempDir()
	old := dayStore(3, 40)
	writeDataDir(t, dir, old, fixtureSeries(30), nil)
	srv := newTestServer(t, dir)
	check("generation 1", fleetMeans(srv), naive(old))
	check("generation 1, memoized", fleetMeans(srv), naive(old))

	grown := dayStore(5, 40)
	writeDataDir(t, dir, grown, fixtureSeries(30), nil)
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	wantNew := naive(grown)
	if reflect.DeepEqual(wantNew, naive(old)) {
		t.Fatal("fixture: the appended days do not move the fleet means")
	}
	check("generation 2", fleetMeans(srv), wantNew)
}

// TestDirFingerprintPinned holds the strings.Builder fingerprint to the
// string the original per-field `fp +=` concatenation (quadratic in the
// shard count) produced, byte for byte, on a 100-shard directory.
func TestDirFingerprintPinned(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(100, 2), fixtureSeries(4), nil) // no quality.json: one "absent"
	concat := func() string {
		fp := ""
		stamp := func(path string) {
			if st, err := os.Stat(path); err == nil {
				fp += strconv.FormatInt(st.Size(), 10) + "," + strconv.FormatInt(st.ModTime().UnixNano(), 10)
			} else {
				fp += "absent"
			}
			fp += ";"
		}
		for _, name := range snapshotFiles {
			fp += name + ":"
			stamp(filepath.Join(dir, name))
		}
		shardFiles, _ := filepath.Glob(filepath.Join(dir, "shard-*.supremm"))
		sort.Strings(shardFiles)
		for _, p := range shardFiles {
			fp += filepath.Base(p) + ":"
			stamp(p)
		}
		return fp
	}
	got, want := DirFingerprint(dir), concat()
	if got != want {
		t.Errorf("fingerprint changed:\n got %q\nwant %q", got, want)
	}
	if n := strings.Count(got, "shard-"); n != 100 {
		t.Errorf("fingerprint names %d shards, want 100", n)
	}
	if !strings.Contains(got, "quality.json:absent;") {
		t.Errorf("fingerprint does not mark the missing quality.json: %q", got[:200])
	}
}

// countingOpen wraps osOpen, counting the bytes read from series.jsonl.
type countingOpen struct{ seriesBytes atomic.Int64 }

func (c *countingOpen) open(path string) (io.ReadCloser, error) {
	rc, err := osOpen(path)
	if err != nil || filepath.Base(path) != "series.jsonl" {
		return rc, err
	}
	return &countingReader{ReadCloser: rc, n: &c.seriesBytes}, nil
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

// replaceSeries rewrites series.jsonl, then stamps a non-zero mtime on it.
func replaceSeries(t *testing.T, dir string, series []store.SystemSample, mtime time.Time) {
	t.Helper()
	path := filepath.Join(dir, "series.jsonl")
	writeSeriesFile(t, path, series)
	if !mtime.IsZero() {
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReloadAdoptsUnchangedSeries: a reload whose series.jsonl kept its
// fingerprint stamp (size + mtime, what the poller trusts) opens the
// file but reads none of it and shares the previous generation's
// samples; any change of the stamp decodes afresh; removal yields an
// empty series; and a load with no previous generation always decodes.
func TestReloadAdoptsUnchangedSeries(t *testing.T) {
	const days, perDay = 6, 20
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(days, perDay), fixtureSeries(40), nil)
	var co countingOpen
	srv, err := New(Config{DataDir: dir, Open: co.open})
	if err != nil {
		t.Fatal(err)
	}
	first := srv.Snapshot()
	fileSize := co.seriesBytes.Swap(0)
	if fileSize == 0 || len(first.Realm.Series) != 40 {
		t.Fatalf("first load read %d series bytes into %d samples; it has no generation to adopt from", fileSize, len(first.Realm.Series))
	}
	_, trendsFirst := get(t, srv, "/api/v1/trends")

	// A day of jobs lands; series.jsonl is untouched.
	grown := dayStore(days+1, perDay)
	grown.ReorderByEndDay()
	if err := store.WriteShardDir(dir, grown); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards != days+1 || snap.ShardsReused != days {
		t.Fatalf("append reload: %d shards, %d reused", snap.Shards, snap.ShardsReused)
	}
	if n := co.seriesBytes.Load(); n != 0 {
		t.Errorf("reload with series.jsonl untouched read %d bytes of it, want 0", n)
	}
	if &snap.Realm.Series[0] != &first.Realm.Series[0] || len(snap.Realm.Series) != 40 {
		t.Error("reload with series.jsonl untouched did not adopt the previous generation's samples")
	}
	if _, got := get(t, srv, "/api/v1/trends"); !bytes.Equal(got, trendsFirst) {
		t.Errorf("trends moved across an adopting reload:\n%s\nwant\n%s", got, trendsFirst)
	}

	// Same size, later mtime: the stamp moved, so the content is read.
	sameSize := fixtureSeries(40)
	sameSize[0].TotalTFlops, sameSize[39].TotalTFlops = 9, 9 // one digit each, like the originals
	prev := snap
	replaceSeries(t, dir, sameSize, time.Now().Add(time.Hour))
	if snap, err = srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if n := co.seriesBytes.Swap(0); n != fileSize {
		t.Errorf("same-size rewrite: read %d series bytes, want the whole file (%d)", n, fileSize)
	}
	if &snap.Realm.Series[0] == &prev.Realm.Series[0] || snap.Realm.Series[0].TotalTFlops != 9 {
		t.Error("same-size rewrite with a later mtime was not decoded afresh")
	}
	_, trendsSameSize := get(t, srv, "/api/v1/trends")
	if bytes.Equal(trendsSameSize, trendsFirst) {
		t.Error("trends did not follow the rewritten series")
	}

	// Different size.
	replaceSeries(t, dir, fixtureSeries(25), time.Time{})
	if snap, err = srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Realm.Series) != 25 || co.seriesBytes.Swap(0) == 0 {
		t.Errorf("different-size rewrite: %d samples, want 25 decoded afresh", len(snap.Realm.Series))
	}
	if _, got := get(t, srv, "/api/v1/trends"); bytes.Equal(got, trendsSameSize) {
		t.Error("trends did not follow the shortened series")
	}

	// A forced reload with nothing changed adopts again.
	prev = snap
	if snap, err = srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if co.seriesBytes.Load() != 0 || &snap.Realm.Series[0] != &prev.Realm.Series[0] {
		t.Error("no-op reload decoded series.jsonl again")
	}

	// Removed: an empty series, never the adopted one.
	if err := os.Remove(filepath.Join(dir, "series.jsonl")); err != nil {
		t.Fatal(err)
	}
	if snap, err = srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Realm.Series) != 0 {
		t.Errorf("%d series samples served without a series.jsonl", len(snap.Realm.Series))
	}

	// ...and back: the previous generation has no stamp to match.
	replaceSeries(t, dir, fixtureSeries(25), time.Time{})
	if snap, err = srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Realm.Series) != 25 || co.seriesBytes.Swap(0) == 0 {
		t.Errorf("restored series.jsonl: %d samples, want 25 decoded afresh", len(snap.Realm.Series))
	}

	// The exported loader has no previous generation: it always decodes.
	realm, err := LoadRealm(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(realm.Series) != 25 || &realm.Series[0] == &snap.Realm.Series[0] {
		t.Error("LoadRealm shared samples with a served generation")
	}
}

// TestAppendWalksOnePartition: the day shards a reload adopts by pointer
// keep what they remember, so after a one-day append a whole-history
// answer walks the one new partition and merges 120 remembered
// partials — /metrics says so, per kernel call — and the answer is the
// naive reference's over the rows the directory now holds. A memo that
// outlived its rows (a grown day's shard adopted with its old sums)
// fails the body comparison; a memo lost on adoption fails the counts.
func TestAppendWalksOnePartition(t *testing.T) {
	const days = 120
	b := batch{}
	for d := int64(1); d <= days; d++ {
		b[d] = 3 + int(d%4)
	}
	dir := t.TempDir()
	land := func() {
		t.Helper()
		writeDataDir(t, dir, b.store(), nil, nil)
	}
	land()
	srv := newTestServer(t, dir)
	use := func() store.PartitionUse {
		t.Helper()
		var m metricsDTO
		_, body := get(t, srv, "/metrics")
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return store.PartitionUse{Remembered: m.PartsRemembered, Walked: m.PartsWalked, Pruned: m.PartsPruned}
	}
	// ask puts modelTargets to the daemon, holds the bodies to the naive
	// reference over b, and returns what each request's kernel calls did.
	ask := func(step string) []store.PartitionUse {
		t.Helper()
		want := naiveBodies(t, b)
		out := make([]store.PartitionUse, len(modelTargets))
		for i, target := range modelTargets {
			before := use()
			status, body := get(t, srv, target)
			if status != http.StatusOK || !bytes.Equal(body, want[i]) {
				t.Errorf("%s: %s answered %d\n got %s\nwant %s", step, target, status, body, want[i])
			}
			after := use()
			out[i] = store.PartitionUse{Remembered: after.Remembered - before.Remembered, Walked: after.Walked - before.Walked, Pruned: after.Pruned - before.Pruned}
		}
		return out
	}
	reload := func(step string, reused int) {
		t.Helper()
		land()
		if _, err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		if snap := srv.Snapshot(); snap.Shards != len(b) || snap.ShardsReused != reused {
			t.Fatalf("%s: %d shards, %d adopted; want %d and %d", step, snap.Shards, snap.ShardsReused, len(b), reused)
		}
		if got := use(); got != (store.PartitionUse{}) {
			t.Errorf("%s: a generation nothing has queried reports %+v", step, got)
		}
	}

	// Generation 1: every first touch is a walk. The whole-realm
	// aggregate is one kernel call; the group-by request is three (the
	// group-by and a fleet mean per metric, one of them the aggregate
	// just asked for).
	cold := ask("generation 1")
	if want := (store.PartitionUse{Walked: days}); cold[0] != want {
		t.Errorf("generation 1, %s: %+v, want %+v", modelTargets[0], cold[0], want)
	}
	if want := (store.PartitionUse{Walked: 2 * days, Remembered: days}); cold[2] != want {
		t.Errorf("generation 1, %s: %+v, want %+v", modelTargets[2], cold[2], want)
	}

	// One day lands: 120 shards adopted with their memos, one decoded.
	b[days+1] = 5
	reload("append", days)
	got := ask("after the append")
	if want := (store.PartitionUse{Walked: 1, Remembered: days}); got[0] != want {
		t.Errorf("after the append, %s: %+v, want %+v: one partition walked", modelTargets[0], got[0], want)
	}
	// The user filter survives compilation everywhere: every partition
	// is walked, as before this PR.
	if got[1].Remembered != 0 || got[1].Walked+got[1].Pruned != days+1 {
		t.Errorf("after the append, %s: %+v, want nothing remembered", modelTargets[1], got[1])
	}
	// Group-by: the new day walked. Fleet means: cpu_idle all remembered
	// (the aggregate above filled the new day's slot), cpu_flops one walk.
	if want := (store.PartitionUse{Walked: 2, Remembered: 3*days + 1}); got[2] != want {
		t.Errorf("after the append, %s: %+v, want %+v: one partition walked per kernel call with something new to learn", modelTargets[2], got[2], want)
	}

	// The newest day grows: its shard is rewritten, a new object with
	// nothing remembered, and the other 120 are adopted.
	b[days+1] += 4
	reload("grown day", days)
	got = ask("after the day grew")
	if want := (store.PartitionUse{Walked: 1, Remembered: days}); got[0] != want {
		t.Errorf("after the day grew, %s: %+v, want %+v", modelTargets[0], got[0], want)
	}
	if want := (store.PartitionUse{Walked: 2, Remembered: 3*days + 1}); got[2] != want {
		t.Errorf("after the day grew, %s: %+v, want %+v", modelTargets[2], got[2], want)
	}
}
