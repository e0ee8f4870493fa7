package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/ingest"
	"supremm/internal/store"
)

// landFrom lands src's version of each named file in dst the way
// store.AtomicWriteFile lands anything (temp + rename), skipping a file
// dst already holds byte for byte — the view a poller has of a
// cmd/ingest run that has got as far as those files.
func landFrom(t testing.TB, src, dst string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if old, err := os.ReadFile(filepath.Join(dst, name)); err == nil && bytes.Equal(old, data) {
			continue
		}
		if err := store.AtomicWriteBytes(dst, name, data); err != nil {
			t.Fatal(err)
		}
	}
}

// heldBodies asks srv every chaos target and requires 200s.
func heldBodies(t *testing.T, srv *Server) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(chaosTargets))
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", target, status, body)
		}
		out[target] = body
	}
	return out
}

// TestMidAppendPollIsNotRot: a poll lands between an append's rewritten
// day shard and its manifest (late jobs ending on a day already
// written; cmd/ingest lands shards first, manifest last). The shard on
// disk fails the old manifest's entry, but it is the writer's fresh,
// well-formed shard — not rot. Under either policy the poll must fail
// like a torn manifest does and keep serving exactly the old rows at
// coverage 1; the healer must rename nothing and log nothing. Once the
// manifest lands, one poll serves exactly the new rows.
func TestMidAppendPollIsNotRot(t *testing.T) {
	const perDay = 50
	old := dayStore(3, perDay)
	grown := dayStore(3, perDay)
	for j := 0; j < 5; j++ { // five late jobs ending on day 1
		r := old.Record(perDay + j)
		r.JobID += 100000
		r.End += 7
		grown.Add(r)
	}
	next := t.TempDir()
	writeDataDir(t, next, grown, fixtureSeries(30), healQuality)
	wantNew := heldBodies(t, newTestServer(t, next))

	for _, selfHeal := range []bool{false, true} {
		dir := t.TempDir()
		writeDataDir(t, dir, old, fixtureSeries(30), healQuality)
		srv, err := New(Config{DataDir: dir, SelfHeal: selfHeal, ScrubBudgetBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Snapshot()
		wantOld := heldBodies(t, srv)

		// Everything of the new batch but its manifest.
		landFrom(t, next, dir, "jobs.jsonl", "jobs.supremm", "series.jsonl", "quality.json",
			store.ShardFileName(0), store.ShardFileName(1), store.ShardFileName(2))
		reloaded, err := srv.MaybeReload()
		if err == nil || reloaded {
			t.Errorf("self-heal %v: mid-append poll: reloaded=%v err=%v, want a failed reload", selfHeal, reloaded, err)
		}
		if selfHeal && !errors.Is(err, store.ErrShardAhead) {
			t.Errorf("mid-append poll failed with %v, want store.ErrShardAhead", err)
		}
		snap := srv.Snapshot()
		if snap != before {
			t.Fatalf("self-heal %v: mid-append poll replaced the served snapshot: generation %d, %d of %d rows, coverage %.3f",
				selfHeal, snap.Gen, snap.Coverage.RowsServed, snap.Coverage.RowsTotal, snap.Coverage.Ratio)
		}
		for target, want := range wantOld {
			if _, got := get(t, srv, target); !bytes.Equal(got, want) {
				t.Errorf("self-heal %v: mid-append %s is not the old rows' answer", selfHeal, target)
			}
		}
		if aside, _ := filepath.Glob(filepath.Join(dir, "*"+store.QuarantineSuffix)); len(aside) != 0 {
			t.Errorf("self-heal %v: the writer's shard was moved aside: %v", selfHeal, aside)
		}
		if events, err := store.LoadQuarantineLog(dir); err != nil || len(events) != 0 {
			t.Errorf("self-heal %v: custody log %+v (err %v), want none", selfHeal, events, err)
		}

		landFrom(t, next, dir, store.ManifestFile)
		if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
			t.Fatalf("self-heal %v: poll after the manifest landed: reloaded=%v err=%v", selfHeal, reloaded, err)
		}
		if cov := srv.Snapshot().Coverage; cov.Degraded || cov.RowsServed != 3*perDay+5 {
			t.Errorf("self-heal %v: coverage after the append = %+v", selfHeal, cov)
		}
		for target, want := range wantNew {
			if _, got := get(t, srv, target); !bytes.Equal(got, want) {
				t.Errorf("self-heal %v: %s after the append is not the new rows' answer", selfHeal, target)
			}
		}
	}
}

// custodyCounts counts the quarantine and repair records in dir's
// custody log.
func custodyCounts(t testing.TB, dir string) (quarantines, repairs int64) {
	t.Helper()
	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Action == store.ActionRepair {
			repairs++
		} else {
			quarantines++
		}
	}
	return quarantines, repairs
}

// healCounts reads the two heal counters off /metrics and counts the
// records of each kind in the custody log.
func healCounts(t *testing.T, srv *Server, dir string) (metQ, metR, logQ, logR int64) {
	t.Helper()
	var met struct {
		Quarantines int64 `json:"quarantines"`
		Repairs     int64 `json:"repairs"`
	}
	if err := json.Unmarshal(getRec(srv, "/metrics").Body.Bytes(), &met); err != nil {
		t.Fatal(err)
	}
	logQ, logR = custodyCounts(t, dir)
	return met.Quarantines, met.Repairs, logQ, logR
}

// TestHealAccountingSurvivesRetry: /metrics must count what the custody
// log records, whatever became of the attempt that did the healing. A
// damaged shard is quarantined and repaired, then the same attempt
// fails on a transient series.jsonl open error: with one retry the trip
// still publishes, with none left it fails — and both times the
// counters equal the log.
func TestHealAccountingSurvivesRetry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failures int // series.jsonl opens that fail once armed
		publish  bool
	}{
		{"retry publishes", 1, true},
		{"trip fails", 2, false},
	} {
		dir := t.TempDir()
		writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
		failing := 0
		open := func(path string) (io.ReadCloser, error) {
			if filepath.Base(path) == "series.jsonl" && failing > 0 {
				failing--
				return nil, errors.New("injected: transient series.jsonl read failure")
			}
			return osOpen(path)
		}
		srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1, RetryMax: 1, Open: open})
		if err != nil {
			t.Fatal(err)
		}
		corruptFile(t, filepath.Join(dir, store.ShardFileName(1)))
		failing = tc.failures
		reloaded, err := srv.MaybeReload()
		if reloaded != tc.publish || (err == nil) != tc.publish {
			t.Fatalf("%s: reloaded=%v err=%v", tc.name, reloaded, err)
		}
		metQ, metR, logQ, logR := healCounts(t, srv, dir)
		if logQ != 1 || logR != 1 {
			t.Fatalf("%s: custody log holds %d quarantine and %d repair records, want 1 and 1", tc.name, logQ, logR)
		}
		if metQ != logQ || metR != logR {
			t.Errorf("%s: /metrics quarantines=%d repairs=%d, custody log has %d and %d", tc.name, metQ, metR, logQ, logR)
		}
	}
}

// TestRepairRecordedBeforeAsideRemoval: a rebuilt day is never served
// without its repair record. Day 1's shard is missing, its aside copy
// is a non-empty directory that cannot be removed, and jobs.jsonl can
// rebuild the day. The repair lands the shard, records it and then
// fails on the removal, which fails the attempt; the retry serves the
// day. The custody log must hold the record, and /metrics must count
// what the log holds.
func TestRepairRecordedBeforeAsideRemoval(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	for _, name := range []string{store.JobsColumnarFile, store.ShardFileName(1)} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, store.QuarantinedShardFile(1), "evidence"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir, SelfHeal: true, RetryMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cov := srv.Snapshot().Coverage; cov.Degraded || cov.RowsServed != 120 {
		t.Fatalf("coverage %+v, want day 1 served", cov)
	}
	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(events, func(ev store.QuarantineEvent) bool {
		return ev.Day == 1 && ev.Action == store.ActionRepair && ev.Reason == "rebuilt from "+store.JobsFile
	}) {
		t.Errorf("day 1 is served rebuilt, but the custody log %+v holds no repair record of it", events)
	}
	if metQ, metR, logQ, logR := healCounts(t, srv, dir); metQ != logQ || metR != logR {
		t.Errorf("/metrics quarantines=%d repairs=%d, custody log has %d and %d", metQ, metR, logQ, logR)
	}
}

// straddlingRequest runs one data request whose render forces a
// degraded -> healthy reload before it returns, so its body ("80 rows",
// the degraded snapshot's) is stored and written with generation 2
// already served. It returns the server, the snapshot the body was
// rendered from, the row it went through and what the client got.
func straddlingRequest(t *testing.T) (*Server, *Snapshot, *endpoint, *httptest.ResponseRecorder) {
	t.Helper()
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	backing, err := os.ReadFile(filepath.Join(dir, "jobs.supremm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jobs.supremm", "jobs.jsonl"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	corruptFile(t, filepath.Join(dir, store.ShardFileName(1)))
	srv, err := New(Config{DataDir: dir, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	degraded := srv.Snapshot()
	if !degraded.Coverage.Degraded {
		t.Fatalf("fixture: start-up coverage %+v, want degraded", degraded.Coverage)
	}

	rows := &endpoint{method: "GET", path: "/api/v1/trends", data: true,
		fn: func(_ *Server, _ context.Context, snap *Snapshot, _ Params) (int, any, error) {
			body := []byte(strconv.Itoa(snap.Realm.Store.Len()) + " rows\n")
			if err := store.AtomicWriteBytes(dir, "jobs.supremm", backing); err != nil {
				return http.StatusInternalServerError, nil, err
			}
			if _, err := srv.Reload(); err != nil { // repairs day 1 from the restored backing
				return http.StatusInternalServerError, nil, err
			}
			return http.StatusOK, body, nil
		}}
	rec := httptest.NewRecorder()
	srv.serve(rec, httptest.NewRequest(http.MethodGet, rows.path, nil), rows)

	if now := srv.Snapshot(); now.Gen != 2 || now.Coverage.Degraded || now.Coverage.Ratio != 1 {
		t.Fatalf("fixture: generation %d with coverage %+v after the render's reload, want 2 at full coverage", now.Gen, now.Coverage)
	}
	if got, want := rec.Body.String(), "80 rows\n"; got != want {
		t.Fatalf("body %q, want %q (the degraded snapshot's)", got, want)
	}
	return srv, degraded, rows, rec
}

// TestCoverageHeaderFollowsBody: X-Supremm-Coverage promises that a
// client can tell whether its answer came from a degraded store, so it
// must carry the ratio of the snapshot the body was rendered from — not
// of whichever snapshot is served by the time the body is written.
func TestCoverageHeaderFollowsBody(t *testing.T) {
	_, degraded, _, rec := straddlingRequest(t)
	want := strconv.FormatFloat(degraded.Coverage.Ratio, 'g', 6, 64)
	if got := rec.Header().Get("X-Supremm-Coverage"); got != want {
		t.Errorf("X-Supremm-Coverage = %q on a body rendered from the degraded snapshot, want %q", got, want)
	}
}

// TestNoDeadGenerationCacheEntries: a body rendered across a swap is
// cached with the generation it was computed on and nowhere else. The
// served generation's cache holds only what a request on it can hit,
// /metrics counts only that, and the next request for the same URL is
// computed afresh.
func TestNoDeadGenerationCacheEntries(t *testing.T) {
	srv, degraded, rows, _ := straddlingRequest(t)
	if n := degraded.cache.Len(); n != 1 {
		t.Errorf("the rendering generation's cache holds %d entries, want the late body", n)
	}
	if n := srv.Snapshot().cache.Len(); n != 0 {
		t.Errorf("the served generation's cache holds %d entries computed on the previous one", n)
	}
	var m metricsDTO
	_, body := get(t, srv, "/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.StoreGeneration != 2 || m.CacheEntries != 0 {
		t.Errorf("/metrics: generation %d with cache_entries %d, want generation 2 with none", m.StoreGeneration, m.CacheEntries)
	}
	status, next := get(t, srv, rows.path)
	if status != http.StatusOK || bytes.Contains(next, []byte("80 rows")) {
		t.Errorf("generation 2 answered %s with %d %q, a body rendered on generation 1", rows.path, status, next)
	}
	if m.CacheMisses != 1 || srv.met.cacheMisses.Load() != 2 || srv.met.cacheHits.Load() != 0 {
		t.Errorf("cache misses %d then %d, hits %d: want 1, 2 and 0 (neither request could hit)",
			m.CacheMisses, srv.met.cacheMisses.Load(), srv.met.cacheHits.Load())
	}
}

// TestDebugReloadsPhases: /debug/reloads lists the forced trips in
// order, and of a reload after series.jsonl changed and one after it
// did not, only the first decodes the series and only the second adopts
// it. With a clock each phase's time lies inside the trip's; without
// one the same phases are listed, at zero.
func TestDebugReloadsPhases(t *testing.T) {
	for _, clocked := range []bool{false, true} {
		dir := t.TempDir()
		writeDataDir(t, dir, fixtureStore(40), fixtureSeries(20), nil)
		cfg := Config{DataDir: dir}
		var reads atomic.Int64
		if clocked {
			cfg.Now = func() time.Time { return time.Unix(0, reads.Add(1)*int64(time.Millisecond)) }
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		later := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dir, store.SeriesFile), later, later); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := srv.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		status, body := get(t, srv, "/debug/reloads")
		var got struct{ Trips []tripDTO }
		if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil {
			t.Fatalf("status %d, %v: %s", status, err, body)
		}
		if len(got.Trips) != 3 {
			t.Fatalf("clock %v: %d trips, want New's and two reloads': %s", clocked, len(got.Trips), body)
		}
		for i, trip := range got.Trips {
			phases := map[string]phaseDTO{}
			var sum int64
			for _, p := range trip.Phases {
				phases[p.Phase] = p
				sum += p.US
			}
			_, decoded := phases["series_decode"]
			_, adopted := phases["series_adopt"]
			if trip.Seq != int64(i+1) || trip.Kind != "forced" || trip.Outcome != "published" || trip.Generation != uint64(i+1) {
				t.Errorf("clock %v: trip %d is %+v", clocked, i, trip)
			}
			if decoded != (i < 2) || adopted != (i == 2) {
				t.Errorf("clock %v: trip %d decoded the series %v, adopted it %v", clocked, i, decoded, adopted)
			}
			if _, ok := phases["shards"]; !ok || phases["manifest"].Bytes == 0 {
				t.Errorf("clock %v: trip %d phases %+v", clocked, i, trip.Phases)
			}
			if clocked && (sum == 0 || sum > trip.ElapsedUS) || !clocked && (sum != 0 || trip.ElapsedUS != 0) {
				t.Errorf("clock %v: trip %d phases sum to %d µs of %d", clocked, i, sum, trip.ElapsedUS)
			}
		}
		if first, last := got.Trips[0], got.Trips[2]; first.ShardsRead == 0 || last.ShardsRead != 0 || last.ShardsAdopted != first.ShardsRead {
			t.Errorf("clock %v: shards read %d then %d, adopted %d", clocked, first.ShardsRead, last.ShardsRead, last.ShardsAdopted)
		}
	}

	// A retried attempt: the first fails opening series.jsonl, the
	// backoff moves the clock by a second, the second publishes. The
	// second is the backoff's, no other phase's.
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(40), fixtureSeries(20), nil)
	var now atomic.Int64
	failing := 0
	srv, err := New(Config{
		DataDir:  dir,
		Now:      func() time.Time { return time.Unix(0, now.Add(int64(time.Millisecond))) },
		RetryMax: 1,
		Backoff:  func(int) { now.Add(int64(time.Second)) },
		Open: func(path string) (io.ReadCloser, error) {
			if filepath.Base(path) == store.SeriesFile && failing > 0 {
				failing--
				return nil, errors.New("injected: transient series.jsonl read failure")
			}
			return osOpen(path)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	failing = 1
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, srv, "/debug/reloads")
	var got struct{ Trips []tripDTO }
	if err := json.Unmarshal(body, &got); err != nil || len(got.Trips) != 2 {
		t.Fatalf("%v: %s", err, body)
	}
	trip := got.Trips[1]
	second := time.Second.Microseconds()
	for _, p := range trip.Phases {
		if p.Phase == "backoff" && p.US < second || p.Phase != "backoff" && p.US >= second {
			t.Errorf("phase %s took %d µs: %+v", p.Phase, p.US, trip)
		}
	}
	if trip.Attempts != 2 || !slices.ContainsFunc(trip.Phases, func(p phaseDTO) bool { return p.Phase == "backoff" }) {
		t.Errorf("retried trip %+v: want 2 attempts and a backoff phase", trip)
	}
}

// TestSeriesStampTakenBeforeOpen: a generation's series stamp is the
// file's as it stood before the open, so a writer that lands a new
// series.jsonl after the open cannot pin the old samples under the new
// file's stamp. The healing generation serves the samples it opened,
// and the next poll finds the stamp moved and serves the new file.
func TestSeriesStampTakenBeforeOpen(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(6, 40), fixtureSeries(40), healQuality)
	var race atomic.Bool
	srv, err := New(Config{DataDir: dir, SelfHeal: true, Open: func(path string) (io.ReadCloser, error) {
		f, err := osOpen(path)
		if err == nil && filepath.Base(path) == store.SeriesFile && race.CompareAndSwap(true, false) {
			if err := store.AtomicWriteFile(dir, store.SeriesFile, func(f *os.File) error {
				return store.SaveSeries(f, fixtureSeries(25))
			}); err != nil {
				t.Error(err)
			}
		}
		return f, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, store.ShardFileName(2))
	st, err := os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shard, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	race.Store(true)
	if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
		t.Fatalf("healing poll: reloaded=%v err=%v", reloaded, err)
	}
	if race.Load() {
		t.Fatal("the healing poll did not open series.jsonl")
	}
	if n := len(srv.Snapshot().Realm.Series); n != 40 {
		t.Fatalf("gen %d serves %d samples, want the 40 it opened", srv.Snapshot().Gen, n)
	}
	if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
		t.Fatalf("poll after the race: reloaded=%v err=%v", reloaded, err)
	}
	if snap := srv.Snapshot(); len(snap.Realm.Series) != 25 {
		t.Errorf("gen %d serves %d samples, want the file's 25", snap.Gen, len(snap.Realm.Series))
	}
}

// TestWitnessTakenBeforeOpen: every file a generation reads is stamped
// before its open, so a writer that replaces it after the open is seen
// by the next poll, whatever the file and even when the attempt healed
// (moved files of its own). In each case a healing poll — one shard torn
// under a batch that adds a day, found by the load step, not the scrub
// step — opens the target; the writer lands the target's newest bytes
// right after that open. The poll serves what it opened; one more poll,
// with no forced reload, must reload and serve what a cold load of the
// directory serves.
func TestWitnessTakenBeforeOpen(t *testing.T) {
	land := func(t *testing.T, dir, name string, fn func(*os.File) error) {
		t.Helper()
		if err := store.AtomicWriteFile(dir, name, fn); err != nil {
			t.Error(err)
			return
		}
		// A later mtime than any earlier write, however coarse the clock.
		later := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name), later, later); err != nil {
			t.Error(err)
		}
	}
	grown := dayStore(7, 40) // the batch the poll loads: day 6 is decoded, the rest adopted
	cases := []struct {
		name   string
		target string
		before func(t *testing.T, dir string) // after the batch lands, before the poll
		writer func(t *testing.T, dir string)
	}{
		{"manifest", store.ManifestFile, nil, func(t *testing.T, dir string) {
			entries, err := store.ReadManifest(dir, nil)
			if err != nil {
				t.Error(err)
				return
			}
			land(t, dir, store.ManifestFile, func(f *os.File) error {
				_, err := f.Write(store.EncodeManifest(entries[:len(entries)-1]))
				return err
			})
		}},
		{"decoded shard", store.ShardFileName(6), nil, func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, store.ShardFileName(6)))
			if err != nil {
				t.Error(err)
				return
			}
			land(t, dir, store.ShardFileName(6), func(f *os.File) error { _, err := f.Write(data); return err })
		}},
		{"series", store.SeriesFile, nil, func(t *testing.T, dir string) {
			land(t, dir, store.SeriesFile, func(f *os.File) error { return store.SaveSeries(f, fixtureSeries(25)) })
		}},
		{"quality", store.QualityFile, nil, func(t *testing.T, dir string) {
			land(t, dir, store.QualityFile, func(f *os.File) error {
				return ingest.WriteQuality(f, &ingest.DataQuality{FilesScanned: 12})
			})
		}},
		{"backing", store.JobsColumnarFile, func(t *testing.T, dir string) {
			// A backing of another batch: it cannot rebuild the torn day.
			land(t, dir, store.JobsColumnarFile, func(f *os.File) error { return dayStore(7, 41).SaveBinary(f) })
		}, func(t *testing.T, dir string) {
			land(t, dir, store.JobsColumnarFile, func(f *os.File) error { return grown.SaveBinary(f) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeDataDir(t, dir, dayStore(6, 40), fixtureSeries(40), healQuality)
			var race atomic.Bool
			// The scrub step re-reads one shard a poll, day 0's first.
			srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: 1, Open: func(path string) (io.ReadCloser, error) {
				f, err := osOpen(path)
				if err == nil && filepath.Base(path) == tc.target && race.CompareAndSwap(true, false) {
					tc.writer(t, dir)
				}
				return f, err
			}})
			if err != nil {
				t.Fatal(err)
			}
			writeDataDir(t, dir, grown, fixtureSeries(40), healQuality)
			if tc.before != nil {
				tc.before(t, dir)
			}
			shard := filepath.Join(dir, store.ShardFileName(2))
			st, err := os.Stat(shard)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(shard, st.Size()/2); err != nil {
				t.Fatal(err)
			}
			race.Store(true)
			if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
				t.Fatalf("healing poll: reloaded=%v err=%v", reloaded, err)
			}
			if race.Load() {
				t.Fatalf("the healing poll did not open %s", tc.target)
			}
			if metQ, _, _, _ := healCounts(t, srv, dir); metQ != 1 {
				t.Fatalf("the poll quarantined %d shards, want the torn one", metQ)
			}
			if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
				t.Fatalf("poll after the writer: reloaded=%v err=%v, want a reload", reloaded, err)
			}
			cold, err := New(Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			served := func(srv *Server) string {
				snap := srv.Snapshot()
				_, agg := get(t, srv, "/api/v1/aggregate?metric=cpu_idle")
				return fmt.Sprintf("%d shards, %d samples, quality %+v, coverage %+v\n%s",
					snap.Shards, len(snap.Realm.Series), *snap.Quality, snap.Coverage, agg)
			}
			if got, want := served(srv), served(cold); got != want {
				t.Errorf("after one more poll the daemon serves\n%s\na cold load serves\n%s", got, want)
			}
		})
	}
}

// TestAdoptedShardStampedAfresh: a shard adopted from the previous
// generation is stamped anew, not left with the stamp it was first read
// under. Adoption trusts a file of the manifest's size, so under the
// strict policy (no scrub step) a same-size rewrite of a day the
// manifest still names is adopted: it must fire exactly one reload, and
// the poll after that must find nothing changed.
func TestAdoptedShardStampedAfresh(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(4, 40), fixtureSeries(10), nil)
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	name := store.ShardFileName(1)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := store.AtomicWriteFile(dir, name, func(f *os.File) error { _, err := f.Write(data); return err }); err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(filepath.Join(dir, name), later, later); err != nil {
		t.Fatal(err)
	}
	if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
		t.Fatalf("poll after the rewrite: reloaded=%v err=%v, want one reload", reloaded, err)
	}
	if snap := srv.Snapshot(); snap.Gen != 2 || snap.ShardsReused != 4 {
		t.Fatalf("generation %d adopted %d shards, want generation 2 adopting all 4", snap.Gen, snap.ShardsReused)
	}
	for i := 0; i < 3; i++ {
		if reloaded, err := srv.MaybeReload(); err != nil || reloaded {
			t.Fatalf("poll %d after the reload: reloaded=%v err=%v, want unchanged", i+1, reloaded, err)
		}
	}
}
