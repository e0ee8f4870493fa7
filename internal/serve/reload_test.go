package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

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
