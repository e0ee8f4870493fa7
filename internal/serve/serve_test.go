package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"supremm/internal/ingest"
	"supremm/internal/store"
)

// fixtureStore builds a small deterministic ranger store.
func fixtureStore(n int) *store.Store {
	st := store.New()
	for i := 0; i < n; i++ {
		r := store.JobRecord{
			JobID:   int64(100 + i),
			Cluster: "ranger",
			User:    fmt.Sprintf("u%02d", i%7),
			App:     []string{"namd", "amber", "gromacs", "wrf"}[i%4],
			Science: []string{"Chemistry", "Physics"}[i%2],
			Nodes:   1 + i%16,
			Submit:  int64(1000 * i),
			Start:   int64(1000*i + 120),
			End:     int64(1000*i + 120 + 3600*(1+i%6)),
			Status:  "completed",
			Samples: 1 + i%4,
		}
		r.CPUIdleFrac = float64(i%10) / 10
		r.MemUsedGB = float64(i % 13)
		r.FlopsGF = 1.5 * float64(i%9)
		st.Add(r)
	}
	return st
}

func fixtureSeries(n int) []store.SystemSample {
	out := make([]store.SystemSample, n)
	for i := range out {
		out[i] = store.SystemSample{
			Time:        int64(600 * (i + 1)),
			ActiveNodes: 16,
			BusyNodes:   8 + i%8,
			TotalTFlops: 1 + float64(i%5),
			MemPerNode:  8 + float64(i%3),
			CPUIdleFrac: 0.1,
		}
	}
	return out
}

// writeDataDir lands a data directory as cmd/ingest does: rows grouped
// by job-end day, then jobs.jsonl, jobs.supremm, series.jsonl, the
// quality report (when there is one) and the day shards under their
// manifest, each file atomically. st is reordered in place.
func writeDataDir(t testing.TB, dir string, st *store.Store, series []store.SystemSample, q *ingest.DataQuality) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	st.ReorderByEndDay()
	write := func(name string, fn func(*os.File) error) {
		t.Helper()
		if err := store.AtomicWriteFile(dir, name, fn); err != nil {
			t.Fatal(err)
		}
	}
	write("jobs.jsonl", func(f *os.File) error { return st.Save(f) })
	write("jobs.supremm", func(f *os.File) error { return st.SaveBinary(f) })
	write("series.jsonl", func(f *os.File) error { return store.SaveSeries(f, series) })
	if q != nil {
		write("quality.json", func(f *os.File) error { return ingest.WriteQuality(f, q) })
	}
	if err := store.WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t testing.TB, dir string) *Server {
	t.Helper()
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// get performs one in-process request and returns status and body.
func get(t testing.TB, srv *Server, target string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.Bytes()
}

func TestEndpointsBasic(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(200), fixtureSeries(50),
		&ingest.DataQuality{FilesScanned: 10, FilesQuarantined: 1})
	srv := newTestServer(t, dir)

	for _, target := range []string{
		"/api/v1/health",
		"/api/v1/aggregate?metric=cpu_idle",
		"/api/v1/aggregate?metric=cpu_flops&user=u03&minsamples=2",
		"/api/v1/distribution?metric=mem_used&bins=10",
		"/api/v1/query?group=app&metrics=cpu_idle,cpu_flops&limit=3",
		"/api/v1/query?group=science&normalize=true",
		"/api/v1/profiles/users?n=3",
		"/api/v1/profiles/apps?apps=namd,amber",
		"/api/v1/efficiency?n=2&min_nodehours=1",
		"/api/v1/trends",
		"/api/v1/workload",
		"/api/v1/quality",
		"/api/v1/report?suite=support",
		"/metrics",
	} {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", target, status, body)
			continue
		}
		if !strings.Contains(target, "report") {
			var v any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Errorf("%s: invalid JSON: %v", target, err)
			}
		}
	}
}

func TestClientErrors(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(20), fixtureSeries(5), nil)
	srv := newTestServer(t, dir)

	for _, target := range []string{
		"/api/v1/aggregate",                          // missing metric
		"/api/v1/aggregate?metric=bogus",             // unknown metric
		"/api/v1/aggregate?metric=cpu_idle&foo=1",    // unknown key
		"/api/v1/aggregate?metric=cpu_idle&metric=x", // repeated key
		"/api/v1/query?group=bogus",
		"/api/v1/query?limit=0",
		"/api/v1/query?limit=999999999",
		"/api/v1/distribution?metric=cpu_idle&bins=-1",
		"/api/v1/distribution?metric=cpu_idle&bins=100000",
		"/api/v1/profiles/users?n=abc",
		"/api/v1/efficiency?min_nodehours=-3",
		"/api/v1/efficiency?min_nodehours=NaN",
		"/api/v1/report",                // missing suite
		"/api/v1/report?suite=nobody",   // unknown suite
		"/api/v1/health?unexpected=1",   // health takes no params
		"/api/v1/query?minsamples=-1",   // negative
		"/api/v1/query?endafter=later",  // non-numeric
		"/api/v1/query?normalize=maybe", // non-bool
	} {
		status, body := get(t, srv, target)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", target, status, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON {error}: %s", target, body)
		}
	}

	if status, _ := get(t, srv, "/api/v1/nothing"); status != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", status)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/aggregate?metric=cpu_idle", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST to GET endpoint: status %d, want 405", rec.Code)
	}
}

func TestCacheHitsAndGenerationInvalidation(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(100), fixtureSeries(10), nil)
	srv := newTestServer(t, dir)

	target := "/api/v1/aggregate?metric=cpu_idle"
	_, first := get(t, srv, target)
	hits0 := srv.met.cacheHits.Load()
	_, second := get(t, srv, target)
	hits1 := srv.met.cacheHits.Load()
	if hits1 != hits0+1 {
		t.Fatalf("second request did not hit the cache: hits %d -> %d", hits0, hits1)
	}
	if string(first) != string(second) {
		t.Fatal("cached response differs from rendered response")
	}

	// Same filter expressed in a different parameter order must hit the
	// same cache entry (canonical key).
	_, _ = get(t, srv, "/api/v1/aggregate?user=u01&metric=cpu_idle")
	hitsA := srv.met.cacheHits.Load()
	_, _ = get(t, srv, "/api/v1/aggregate?metric=cpu_idle&user=u01")
	hitsB := srv.met.cacheHits.Load()
	if hitsB != hitsA+1 {
		t.Fatal("parameter order changed the cache key")
	}

	// A reload bumps the generation: the old entry must not serve.
	writeDataDir(t, dir, fixtureStore(150), fixtureSeries(10), nil)
	gen0 := srv.Snapshot().Gen
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d, body %s", rec.Code, rec.Body.String())
	}
	if srv.Snapshot().Gen != gen0+1 {
		t.Fatalf("generation %d after reload, want %d", srv.Snapshot().Gen, gen0+1)
	}
	_, third := get(t, srv, target)
	var before, after aggDTO
	if err := json.Unmarshal(first, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(third, &after); err != nil {
		t.Fatal(err)
	}
	if before.N == after.N {
		t.Fatalf("post-reload response still reflects the old store (n=%d)", after.N)
	}
}

// TestCachedHitAllocations pins what one cached GET costs in
// allocations through the whole of ServeHTTP — mux, sequence, cache,
// headers — with no clock injected, at the figure of the commit before
// the request path became one sequence. The recorder is reused so only
// the server's own allocations are counted.
func TestCachedHitAllocations(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(100), fixtureSeries(10), nil)
	srv := newTestServer(t, dir)
	const target = "/api/v1/aggregate?metric=cpu_idle"
	get(t, srv, target)
	req, rec := httptest.NewRequest(http.MethodGet, target, nil), httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	})
	if hits := srv.met.cacheHits.Load(); hits < 200 {
		t.Fatalf("fixture: %d cache hits over 200 runs", hits)
	}
	if allocs > 18 {
		t.Errorf("a cached hit allocates %v times, want <= 18", allocs)
	}
}

func TestMaybeReloadPolling(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(50), fixtureSeries(5), nil)
	srv := newTestServer(t, dir)

	reloaded, err := srv.MaybeReload()
	if err != nil {
		t.Fatal(err)
	}
	if reloaded {
		t.Fatal("MaybeReload reloaded with an unchanged directory")
	}
	// Rewrite with different content; ensure the mtime-or-size
	// fingerprint moves even on coarse-mtime filesystems.
	writeDataDir(t, dir, fixtureStore(60), fixtureSeries(5), nil)
	fixed := time.Unix(1700000000, 0)
	if err := os.Chtimes(filepath.Join(dir, "jobs.jsonl"), fixed, fixed); err != nil {
		t.Fatal(err)
	}
	reloaded, err = srv.MaybeReload()
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded {
		t.Fatal("MaybeReload missed a changed data directory")
	}
	if got := srv.Snapshot().Realm.Store.Len(); got != 60 {
		t.Fatalf("reloaded store has %d jobs, want 60", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(30), fixtureSeries(5), nil)
	// A fake strictly increasing clock exercises the latency histogram
	// deterministically.
	var tick int64
	srv, err := New(Config{DataDir: dir, Now: func() time.Time {
		tick++
		return time.Unix(0, tick*int64(200*time.Microsecond))
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = get(t, srv, "/api/v1/aggregate?metric=cpu_idle")
	_, _ = get(t, srv, "/api/v1/aggregate?metric=cpu_idle") // cache hit
	_, _ = get(t, srv, "/api/v1/aggregate?metric=nope")     // 400
	status, body := get(t, srv, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	var m metricsDTO
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if m.Requests["/api/v1/aggregate"] != 3 {
		t.Errorf("aggregate requests = %d, want 3", m.Requests["/api/v1/aggregate"])
	}
	if m.Status4xx != 1 || m.Status2xx < 2 {
		t.Errorf("status counters 2xx=%d 4xx=%d", m.Status2xx, m.Status4xx)
	}
	if m.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", m.CacheHits)
	}
	if m.StoreGeneration != 1 {
		t.Errorf("store generation = %d, want 1", m.StoreGeneration)
	}
	if m.Latency.Observed == 0 {
		t.Error("latency histogram recorded nothing despite injected clock")
	}
}

func TestQualityAbsent(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(2), nil)
	srv := newTestServer(t, dir)
	_, body := get(t, srv, "/api/v1/quality")
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v["available"] != false {
		t.Fatalf("quality without quality.json: %v", v)
	}
}

func TestNaNSafeJSONOnEmptyPopulation(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(2), nil)
	srv := newTestServer(t, dir)
	// No job matches this user: the aggregate is all-NaN, which must
	// render as nulls, not fail to marshal.
	status, body := get(t, srv, "/api/v1/aggregate?metric=cpu_idle&user=nobody")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v["mean"] != nil {
		t.Fatalf("empty aggregate mean = %v, want null", v["mean"])
	}
	if v["n"] != float64(0) {
		t.Fatalf("empty aggregate n = %v, want 0", v["n"])
	}
}

// TestReloadFailsOnUnreadableSeries: only a missing series.jsonl means
// "no series". Any other open error (EACCES, EIO, an injected fault)
// must fail the reload, so the last-good generation — with its series —
// keeps serving instead of a new one with an empty time series.
func TestReloadFailsOnUnreadableSeries(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(6), nil)
	var broken atomic.Bool
	srv, err := New(Config{DataDir: dir, Open: func(path string) (io.ReadCloser, error) {
		if broken.Load() && filepath.Base(path) == "series.jsonl" {
			return nil, &fs.PathError{Op: "open", Path: path, Err: syscall.EIO}
		}
		return os.Open(path)
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, before := get(t, srv, "/api/v1/trends")

	broken.Store(true)
	if _, err := srv.Reload(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("reload with unreadable series.jsonl: err = %v, want EIO", err)
	}
	if snap := srv.Snapshot(); snap.Gen != 1 || len(snap.Realm.Series) != 6 {
		t.Fatalf("serving generation %d with %d series samples, want last-good generation 1 with 6",
			snap.Gen, len(snap.Realm.Series))
	}
	if _, after := get(t, srv, "/api/v1/trends"); !bytes.Equal(after, before) {
		t.Errorf("trends changed after a failed reload:\n%s\nwant\n%s", after, before)
	}

	// Absent is still not an error.
	broken.Store(false)
	if err := os.Remove(filepath.Join(dir, "series.jsonl")); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Reload()
	if err != nil {
		t.Fatalf("reload without series.jsonl: %v", err)
	}
	if len(snap.Realm.Series) != 0 {
		t.Errorf("%d series samples without series.jsonl", len(snap.Realm.Series))
	}
}

// TestDistributionIgnoresNaN: a NaN metric value on the first selected
// row (the shard codec carries NaN; JSON lines cannot, so the directory
// holds shards only) used to seed both bounds — lo and hi null, every
// row in bin 0. It is no bound, sits in no bin and is not counted.
func TestDistributionIgnoresNaN(t *testing.T) {
	src, st := fixtureStore(60), store.New()
	for i := 0; i < src.Len(); i++ {
		r := src.Record(i)
		if i == 0 {
			r.MemUsedGB = math.NaN()
		}
		st.Add(r)
	}
	dir := t.TempDir()
	if err := store.WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	if err := store.AtomicWriteFile(dir, "series.jsonl", func(f *os.File) error { return store.SaveSeries(f, fixtureSeries(5)) }); err != nil {
		t.Fatal(err)
	}
	status, body := get(t, newTestServer(t, dir), "/api/v1/distribution?metric=mem_used&bins=4")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var d struct {
		N      int      `json:"n"`
		Lo     *float64 `json:"lo"`
		Hi     *float64 `json:"hi"`
		Counts []int    `json:"counts"`
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Lo == nil || d.Hi == nil || *d.Lo != 0 || *d.Hi != 12 {
		t.Errorf("lo, hi want 0, 12 (mem_used is i%%13 on every other row): %s", body)
	}
	total := 0
	for _, c := range d.Counts {
		total += c
	}
	if d.N != 59 || total != 59 || len(d.Counts) != 4 || d.Counts[0] == 59 {
		t.Errorf("n %d, counts %v; want the 59 numbers spread over 4 bins: %s", d.N, d.Counts, body)
	}
}
