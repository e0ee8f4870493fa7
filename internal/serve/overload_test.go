package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// TestShedWhenSaturated holds the single admission slot with a blocked
// request and checks a second request sheds with 503 + Retry-After and
// the shed counter moves.
func TestShedWhenSaturated(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(20), fixtureSeries(5), nil)

	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, err := New(Config{
		DataDir:       dir,
		MaxInFlight:   1,
		MaxQueue:      -1, // no queue: shed at the limit
		RetryAfterSec: 7,
		Hooks: Hooks{BeforeHandle: func(context.Context, string) func() {
			entered <- struct{}{}
			<-block
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := get(t, srv, "/api/v1/workload")
		if status != http.StatusOK {
			t.Errorf("blocked request finished with %d", status)
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never entered")
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/trends", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want 7", got)
	}
	if n := srv.met.shed.Load(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}

	// Ops endpoints keep answering while queries shed.
	for _, target := range []string{"/healthz", "/metrics", "/api/v1/health"} {
		if status, body := get(t, srv, target); status != http.StatusOK {
			t.Errorf("%s while saturated: %d (%s)", target, status, body)
		}
	}

	close(block)
	wg.Wait()
}

// TestRequestDeadlineCancelsAggregation blocks an admitted request
// until its per-request deadline fires, then checks the aggregation
// path surfaces 503 + Retry-After and counts a deadline timeout.
func TestRequestDeadlineCancelsAggregation(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(50), fixtureSeries(5), nil)

	srv, err := New(Config{
		DataDir:        dir,
		CacheSize:      -1, // no cache: the render must run
		RequestTimeout: 20 * time.Millisecond,
		Hooks: Hooks{BeforeHandle: func(ctx context.Context, _ string) func() {
			<-ctx.Done() // park until the deadline fires
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/aggregate?metric=cpu_idle", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("timed-out response lacks Retry-After")
	}
	if n := srv.met.deadlineTimeouts.Load(); n != 1 {
		t.Errorf("deadline_timeouts = %d, want 1", n)
	}
}

// TestPanicRecovery: a panicking handler (injected through the chaos
// hook) becomes a counted 500, and the daemon keeps serving.
func TestPanicRecovery(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(2), nil)

	var bomb sync.Once
	armed := true
	var mu sync.Mutex
	srv, err := New(Config{DataDir: dir, Hooks: Hooks{
		BeforeHandle: func(context.Context, string) func() {
			mu.Lock()
			a := armed
			mu.Unlock()
			if a {
				bomb.Do(func() {
					mu.Lock()
					armed = false
					mu.Unlock()
				})
				panic("chaos: injected handler panic")
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, body := get(t, srv, "/api/v1/workload")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d (%s)", status, body)
	}
	if n := srv.met.panics.Load(); n != 1 {
		t.Errorf("panics_recovered = %d, want 1", n)
	}
	// The daemon survived; the same endpoint now answers, and the
	// admission slot the panicking request held was released.
	if status, body := get(t, srv, "/api/v1/workload"); status != http.StatusOK {
		t.Fatalf("request after panic: status %d (%s)", status, body)
	}
	if d := srv.adm.dto(); d.InFlight != 0 {
		t.Errorf("in_flight = %d after panic, want 0 (slot leaked)", d.InFlight)
	}
}

// TestHealthzReadyzProbes: /healthz stays 200 always; /readyz flips to
// 503 while the reload breaker is open and recovers on heal.
func TestHealthzReadyzProbes(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, series := fixtureStore(30), fixtureSeries(6)
	writeDataDir(t, dir, st, series, nil)
	good, err := os.ReadFile(filepath.Join(dir, store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir, BreakerThreshold: 2, BreakerBackoffPolls: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/healthz", "/readyz"} {
		if status, body := get(t, srv, target); status != http.StatusOK {
			t.Fatalf("%s on healthy daemon: %d (%s)", target, status, body)
		}
	}

	_, lastGood := get(t, srv, "/api/v1/workload")

	// Tear the manifest and fail reloads until the breaker opens.
	if err := os.WriteFile(filepath.Join(dir, store.ManifestFile), good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Reload(); err == nil {
			t.Fatal("reload over a torn manifest succeeded")
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("not-ready response lacks Retry-After")
	}
	var rz struct {
		Ready   bool   `json:"ready"`
		Breaker string `json:"breaker"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || rz.Breaker != "open" {
		t.Errorf("readyz body = %+v", rz)
	}
	// Liveness is unaffected; queries still serve the last-good data.
	if status, _ := get(t, srv, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz with open breaker: %d", status)
	}
	if status, body := get(t, srv, "/api/v1/workload"); status != http.StatusOK || !bytes.Equal(body, lastGood) {
		t.Errorf("query with open breaker: status %d, body identical to last-good: %v", status, bytes.Equal(body, lastGood))
	}

	// Heal and force a reload: readyz recovers.
	if err := os.WriteFile(filepath.Join(dir, store.ManifestFile), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(t, srv, "/readyz"); status != http.StatusOK {
		t.Errorf("readyz after heal: %d", status)
	}
}

// TestMaybeReloadBreakerSkips drives the poll path against a torn
// directory: the breaker opens after the threshold, subsequent polls
// are skipped without touching the directory, the served generation
// never changes, and the half-open probe after heal recovers.
func TestMaybeReloadBreakerSkips(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, series := fixtureStore(25), fixtureSeries(4)
	writeDataDir(t, dir, st, series, nil)
	good, err := os.ReadFile(filepath.Join(dir, store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir, BreakerThreshold: 3, BreakerBackoffPolls: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := srv.Snapshot().Gen

	if err := os.WriteFile(filepath.Join(dir, store.ManifestFile), good[:len(good)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// Three polls fail (breaker closed -> open at the third).
	for i := 0; i < 3; i++ {
		if _, err := srv.MaybeReload(); err == nil {
			t.Fatalf("poll %d succeeded on a torn directory", i)
		}
	}
	if st := srv.dir.brk.currentState(); st != breakerOpen {
		t.Fatalf("breaker %v after threshold polls, want open", st)
	}
	// Next poll is skipped: no error, no reload, cooldown burns.
	if reloaded, err := srv.MaybeReload(); reloaded || err != nil {
		t.Fatalf("skipped poll: reloaded=%v err=%v", reloaded, err)
	}
	if skipped := srv.dir.brk.dto().ReloadsSkipped; skipped == 0 {
		t.Error("no skipped polls recorded while open")
	}
	if g := srv.Snapshot().Gen; g != gen {
		t.Fatalf("served generation moved to %d during failed reloads", g)
	}

	// Heal; the next allowed probe closes the breaker and advances.
	if err := os.WriteFile(filepath.Join(dir, store.ManifestFile), good, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Gen == gen {
		if time.Now().After(deadline) {
			t.Fatal("daemon never recovered after heal")
		}
		if _, err := srv.MaybeReload(); err != nil {
			t.Fatalf("probe after heal failed: %v", err)
		}
	}
	if st := srv.dir.brk.currentState(); st != breakerClosed {
		t.Errorf("breaker %v after recovery, want closed", st)
	}
	if n := srv.met.reloadErrors.Load(); n != 3 {
		t.Errorf("reload_errors = %d, want 3 (skipped polls must not attempt loads)", n)
	}
}
