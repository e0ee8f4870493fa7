package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/faultinject"
	"supremm/internal/ingest"
	"supremm/internal/leakcheck"
)

// chaosTargets are the data endpoints the soak hammers. They must all
// be generation-independent in body (no /metrics, no /api/v1/health)
// so successful responses can be compared bit-for-bit against a
// fault-free baseline across reloads.
var chaosTargets = []string{
	"/api/v1/aggregate?metric=cpu_idle",
	"/api/v1/aggregate?metric=cpu_flops&app=namd",
	"/api/v1/distribution?metric=mem_used&bins=8",
	"/api/v1/query?group=app&metrics=cpu_idle,cpu_flops&limit=4",
	"/api/v1/profiles/users?n=3",
	"/api/v1/efficiency?limit=5",
	"/api/v1/trends",
	"/api/v1/workload",
	"/api/v1/quality",
	"/api/v1/report?suite=admin",
}

// TestChaosSoak is the serve-layer chaos harness (DESIGN.md §13): a
// seeded fault driver tears the manifest, storms the data directory,
// and slows snapshot reads while concurrent clients hammer the data
// endpoints through a tight admission valve. Invariants asserted:
//
//  1. every 200 body is bit-identical to the fault-free baseline —
//     faults may shed or delay queries, never corrupt them;
//  2. every 503 carries Retry-After;
//  3. true handler concurrency (measured independently of the
//     admission gauge) never exceeds MaxInFlight;
//  4. the breaker opens under the torn directory, skips polls, and the
//     daemon converges back to healthy (closed breaker, fresh
//     generation, baseline bodies) after heal;
//  5. goroutines return to baseline (leakcheck).
//
// Run under -race via `make test-serve`.
func TestChaosSoak(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, series := fixtureStore(120), fixtureSeries(30)
	writeDataDir(t, dir, st, series, &ingest.DataQuality{FilesScanned: 12, FilesQuarantined: 1})

	chaos := faultinject.NewServeChaos(20260809, dir, readGoodFiles(t, dir))

	// Fault-free baseline bodies from a pristine server over the same
	// corpus.
	baselineSrv := newTestServer(t, dir)
	baseline := make(map[string][]byte, len(chaosTargets))
	for _, target := range chaosTargets {
		status, body := get(t, baselineSrv, target)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d (%s)", target, status, body)
		}
		baseline[target] = body
	}

	// The chaos server: tight valve, slow reads of the job store, a gate
	// the saturation phase uses to pin handlers inside their slots, and
	// an independent concurrency meter.
	const (
		maxInFlight = 4
		maxQueue    = 8
		clients     = 16
	)
	var cur, peak atomic.Int64
	var gateOn atomic.Bool
	gate := make(chan struct{})
	hooks := Hooks{BeforeHandle: func(context.Context, string) func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		if gateOn.Load() {
			<-gate
		}
		return func() { cur.Add(-1) }
	}}
	slowOpen := faultinject.SlowOpener(osOpen,
		func(path string) bool { return strings.HasSuffix(path, ".supremm") }, // manifest + shards
		func() { time.Sleep(20 * time.Microsecond) })
	srv, err := New(Config{
		DataDir:             dir,
		MaxInFlight:         maxInFlight,
		MaxQueue:            maxQueue,
		RetryAfterSec:       1,
		BreakerThreshold:    3,
		BreakerBackoffPolls: 2,
		Open:                slowOpen,
		Hooks:               hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	startGen := srv.Snapshot().Gen

	// Client fleet: round-robin over the targets, validating every
	// response against the invariants.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				target := chaosTargets[(g+i)%len(chaosTargets)]
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				switch rec.Code {
				case http.StatusOK:
					if !bytes.Equal(rec.Body.Bytes(), baseline[target]) {
						report(errNotBaseline(target, rec.Body.Bytes()))
						return
					}
				case http.StatusServiceUnavailable:
					if rec.Header().Get("Retry-After") == "" {
						report(errNoRetryAfter(target))
						return
					}
				default:
					report(errBadStatus(target, rec.Code, rec.Body.String()))
					return
				}
			}
		}(g)
	}

	waitAdm := func(cond func(admissionDTO) bool, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond(srv.adm.dto()) {
			if time.Now().After(deadline) {
				stop.Store(true)
				close(gate)
				wg.Wait()
				t.Fatalf("saturation never reached: %s (adm %+v)", what, srv.adm.dto())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// --- Phase 1: saturation. Gate the handlers so the fleet pins the
	// valve at its limits, then verify deterministic shedding.
	gateOn.Store(true)
	waitAdm(func(d admissionDTO) bool {
		return d.InFlight == maxInFlight && d.InQueue == maxQueue
	}, "in_flight at limit and queue full")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, chaosTargets[0], nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		stop.Store(true)
		close(gate)
		wg.Wait()
		t.Fatalf("request at full valve: status %d, Retry-After %q",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	gateOn.Store(false)
	close(gate)

	// --- Phase 2: reload storm + slow reads. The directory is
	// rewritten rapidly (non-atomic legacy writer); polls land on
	// loadable bytes here, so reloads succeed while queries keep
	// matching baseline.
	for i := 0; i < 3; i++ {
		if err := chaos.Storm(2); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.MaybeReload(); err != nil {
			// A poll can catch a storm rewrite mid-flight; the breaker
			// absorbs it and the last-good snapshot keeps serving.
			t.Logf("storm poll %d: %v (tolerated)", i, err)
		}
	}

	// --- Phase 3: torn manifest. Polls fail until the breaker opens;
	// the served snapshot must not change.
	genBeforeTear := srv.Snapshot().Gen
	if _, err := chaos.TearSnapshot(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.dir.brk.currentState() != breakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under the torn manifest")
		}
		_, _ = srv.MaybeReload() // failures feed the breaker
		time.Sleep(time.Millisecond)
	}
	if g := srv.Snapshot().Gen; g != genBeforeTear {
		t.Fatalf("served generation moved %d -> %d during torn phase", genBeforeTear, g)
	}
	skippedBefore := srv.dir.brk.dto().ReloadsSkipped
	for i := 0; i < 2; i++ {
		_, _ = srv.MaybeReload()
	}
	if skipped := srv.dir.brk.dto().ReloadsSkipped; skipped <= skippedBefore {
		t.Errorf("open breaker skipped no polls (%d -> %d)", skippedBefore, skipped)
	}

	// --- Phase 4: heal. Polls keep coming; the half-open probe lands
	// on good bytes and the daemon converges back to healthy.
	if err := chaos.Heal(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for srv.Snapshot().Gen == genBeforeTear || srv.dir.brk.currentState() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never converged after heal (gen %d, breaker %v)",
				srv.Snapshot().Gen, srv.dir.brk.currentState())
		}
		_, _ = srv.MaybeReload()
		time.Sleep(time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-soak invariants.
	if p := peak.Load(); p > maxInFlight {
		t.Errorf("true concurrency peaked at %d, limit %d", p, maxInFlight)
	}
	if n := srv.met.shed.Load(); n == 0 {
		t.Error("soak shed nothing despite the saturation phase")
	}
	if opens := srv.dir.brk.dto().Opens; opens < 1 {
		t.Errorf("breaker opened %d times, want >= 1", opens)
	}
	if g := srv.Snapshot().Gen; g <= startGen {
		t.Errorf("final generation %d not past start %d", g, startGen)
	}
	counts := chaos.Counts()
	if counts[faultinject.KindTornSnapshot] == 0 || counts[faultinject.KindReloadStorm] == 0 {
		t.Errorf("fault counts incomplete: %v", counts)
	}
	// Converged: every target matches the fault-free baseline again.
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("post-heal %s: status %d (%s)", target, status, body)
		}
		if !bytes.Equal(body, baseline[target]) {
			t.Errorf("post-heal %s diverges from baseline", target)
		}
	}
}

// TestChaosSlowClient runs the daemon on a real listener and hits it
// with clients that read a byte at a time and hang up mid-body; the
// daemon must neither leak goroutines nor wedge its admission valve.
func TestChaosSlowClient(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(40), fixtureSeries(8), nil)
	srv, err := New(Config{DataDir: dir, MaxInFlight: 2, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	addr := ts.Listener.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Read a handful of bytes slowly, then disconnect mid-body.
			err := faultinject.SlowClient(addr, "/api/v1/workload", 8+i,
				func() { time.Sleep(time.Millisecond) })
			if err != nil {
				t.Errorf("slow client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// The valve fully recovered: a normal client gets a full answer.
	resp, err := http.Get(ts.URL + "/api/v1/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after slow clients: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.dto().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots wedged: %+v", srv.adm.dto())
		}
		time.Sleep(time.Millisecond)
	}
}

// Error constructors kept out of the hot loop for readability.

func errNotBaseline(target string, body []byte) error {
	return &chaosErr{msg: "response for " + target + " diverged from fault-free baseline: " + trim(body)}
}

func errNoRetryAfter(target string) error {
	return &chaosErr{msg: "503 for " + target + " without Retry-After"}
}

func errBadStatus(target string, code int, body string) error {
	return &chaosErr{msg: target + ": unexpected status " + http.StatusText(code) + ": " + trim([]byte(body))}
}

type chaosErr struct{ msg string }

func (e *chaosErr) Error() string { return e.msg }

func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
