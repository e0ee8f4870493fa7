package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/faultinject"
	"supremm/internal/ingest"
	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// healQuality is the ingest report the self-heal fixtures share; the
// /api/v1/quality body depends on it, so baseline servers must use the
// same one.
var healQuality = &ingest.DataQuality{FilesScanned: 9}

// withoutDay rebuilds a store minus one epoch day's rows — the corpus a
// healthy-shards-only baseline server loads, for bit-exact comparison
// against degraded serving.
func withoutDay(full *store.Store, day int64) *store.Store {
	st := store.New()
	for i := 0; i < full.Len(); i++ {
		r := full.Record(i)
		if store.EpochDay(r.End) == day {
			continue
		}
		st.Add(r)
	}
	return st
}

// corruptFile flips one byte in the middle of a file in place (size
// preserved, mtime updated — the damage a fingerprint CAN see).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// getRec is get plus headers: one in-process request, full recorder.
func getRec(srv *Server, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// readyzBody is the subset of the /readyz body the tests assert on.
type readyzBody struct {
	Ready    bool     `json:"ready"`
	Status   string   `json:"status"`
	Breaker  string   `json:"breaker"`
	Coverage Coverage `json:"coverage"`
}

func readyz(t *testing.T, srv *Server) (int, readyzBody, http.Header) {
	t.Helper()
	rec := getRec(srv, "/readyz")
	var body readyzBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body: %v (%s)", err, rec.Body.Bytes())
	}
	return rec.Code, body, rec.Header()
}

// TestHealDegradedServing: a shard is damaged and no monolithic backing
// exists, so repair is impossible. With SelfHeal on the load must
// SUCCEED degraded — honest coverage accounting everywhere, quarantine
// evidence on disk, and every data response bit-identical to a server
// that never had the missing day.
func TestHealDegradedServing(t *testing.T) {
	const perDay = 40
	full := dayStore(3, perDay)
	dir := t.TempDir()
	writeDataDir(t, dir, full, fixtureSeries(30), healQuality)
	corruptFile(t, filepath.Join(dir, store.ShardFileName(1)))
	for _, backing := range []string{"jobs.supremm", "jobs.jsonl"} {
		if err := os.Remove(filepath.Join(dir, backing)); err != nil {
			t.Fatal(err)
		}
	}

	// The healthy-shards-only baseline: the same corpus minus day 1.
	dirP := t.TempDir()
	writeDataDir(t, dirP, withoutDay(full, 1), fixtureSeries(30), healQuality)
	baseline := newTestServer(t, dirP)

	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1})
	if err != nil {
		t.Fatalf("degraded startup failed outright: %v", err)
	}

	snap := srv.Snapshot()
	cov := snap.Coverage
	if !cov.Degraded || cov.RowsServed != 2*perDay || cov.RowsTotal != 3*perDay || cov.MissingShards != 1 {
		t.Fatalf("coverage = %+v, want degraded 80/120 with 1 missing shard", cov)
	}
	if len(cov.MissingDays) != 1 || cov.MissingDays[0].FromDay != 1 || cov.MissingDays[0].ToDay != 1 {
		t.Fatalf("missing days = %+v, want exactly day 1", cov.MissingDays)
	}
	if cov.MissingDays[0].From != "1970-01-02" {
		t.Fatalf("missing day date = %q, want 1970-01-02", cov.MissingDays[0].From)
	}

	// Quarantine evidence: the damaged bytes moved aside, the log says why.
	if _, err := os.Stat(filepath.Join(dir, store.QuarantinedShardFile(1))); err != nil {
		t.Fatalf("quarantined shard file: %v", err)
	}
	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Day != 1 || events[0].Action != store.ActionQuarantine {
		t.Fatalf("quarantine log = %+v, want one quarantine event for day 1", events)
	}
	if n := srv.met.quarantines.Load(); n != 1 {
		t.Errorf("quarantines metric = %d, want 1", n)
	}

	// Readiness: degraded, not down — the breaker stayed closed.
	code, body, _ := readyz(t, srv)
	if code != http.StatusOK || !body.Ready || body.Status != "degraded" {
		t.Fatalf("readyz = %d %+v, want 200 ready degraded", code, body)
	}
	if body.Breaker != "closed" {
		t.Errorf("breaker %q after degraded load, want closed", body.Breaker)
	}

	// The coverage ratio rides on every response, ops and data alike.
	wantHdr := strconv.FormatFloat(cov.Ratio, 'g', 6, 64)
	for _, target := range []string{"/healthz", chaosTargets[0]} {
		if got := getRec(srv, target).Header().Get("X-Supremm-Coverage"); got != wantHdr {
			t.Errorf("%s X-Supremm-Coverage = %q, want %q", target, got, wantHdr)
		}
	}
	var hz struct {
		Coverage Coverage `json:"coverage"`
	}
	if err := json.Unmarshal(getRec(srv, "/healthz").Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if !coverageEqual(hz.Coverage, cov) {
		t.Errorf("healthz coverage = %+v, want %+v", hz.Coverage, cov)
	}

	// Degraded answers are the healthy-shards-only answers, bit for bit.
	for _, target := range chaosTargets {
		status, got := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("degraded %s: status %d (%s)", target, status, got)
		}
		bstatus, want := get(t, baseline, target)
		if bstatus != http.StatusOK {
			t.Fatalf("baseline %s: status %d", target, bstatus)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("degraded %s diverges from healthy-shards-only baseline", target)
		}
	}
}

func coverageEqual(a, b Coverage) bool {
	if a.RowsServed != b.RowsServed || a.RowsTotal != b.RowsTotal || a.Ratio != b.Ratio ||
		a.Degraded != b.Degraded || a.MissingShards != b.MissingShards ||
		len(a.MissingDays) != len(b.MissingDays) {
		return false
	}
	for i := range a.MissingDays {
		if a.MissingDays[i] != b.MissingDays[i] {
			return false
		}
	}
	return true
}

// TestHealRepairFromBacking: a damaged shard with the monolithic
// backing intact is quarantined AND repaired inside one poll tick; the
// rebuilt shard is byte-identical, coverage returns to 1, and the
// quarantine log records the full custody chain.
func TestHealRepairFromBacking(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	shardPath := filepath.Join(dir, store.ShardFileName(1))
	pristine, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1700000000, 0)
	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if cov := srv.Snapshot().Coverage; cov.Degraded || cov.Ratio != 1 {
		t.Fatalf("healthy startup coverage = %+v", cov)
	}

	corruptFile(t, shardPath)
	reloaded, err := srv.MaybeReload()
	if err != nil {
		t.Fatalf("poll over damaged shard: %v", err)
	}
	if !reloaded {
		t.Fatal("poll did not reload after shard damage")
	}

	snap := srv.Snapshot()
	if cov := snap.Coverage; cov.Degraded || cov.Ratio != 1 || cov.RowsServed != 120 {
		t.Fatalf("post-repair coverage = %+v, want full", cov)
	}
	repaired, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, pristine) {
		t.Fatal("repaired shard bytes differ from pristine")
	}
	if _, err := os.Stat(filepath.Join(dir, store.QuarantinedShardFile(1))); !os.IsNotExist(err) {
		t.Errorf("quarantined copy still present after repair: %v", err)
	}

	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Action != store.ActionQuarantine || events[1].Action != store.ActionRepair {
		t.Fatalf("quarantine log = %+v, want quarantine then repair", events)
	}
	if events[1].At != now.Unix() {
		t.Errorf("repair event At = %d, want the injected clock %d", events[1].At, now.Unix())
	}
	if q, r := srv.met.quarantines.Load(), srv.met.repairs.Load(); q != 1 || r != 1 {
		t.Errorf("metrics quarantines=%d repairs=%d, want 1 and 1", q, r)
	}
	if code, body, _ := readyz(t, srv); code != http.StatusOK || body.Status != "ready" {
		t.Errorf("readyz after repair = %d %+v, want 200 ready", code, body)
	}
}

// TestHealMinCoverageFloor: below the configured coverage floor, data
// queries are refused 503 with Retry-After and the missing day ranges,
// readyz reports down, and the ops endpoints keep answering.
func TestHealMinCoverageFloor(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	corruptFile(t, filepath.Join(dir, store.ShardFileName(1)))
	for _, backing := range []string{"jobs.supremm", "jobs.jsonl"} {
		if err := os.Remove(filepath.Join(dir, backing)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1,
		MinCoverage: 0.9, RetryAfterSec: 7})
	if err != nil {
		t.Fatal(err)
	}

	rec := getRec(srv, chaosTargets[0])
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("data query below floor: status %d (%s)", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	var refusal struct {
		Error    string   `json:"error"`
		Coverage Coverage `json:"coverage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil {
		t.Fatal(err)
	}
	if refusal.Error == "" || len(refusal.Coverage.MissingDays) != 1 || refusal.Coverage.MissingDays[0].FromDay != 1 {
		t.Fatalf("refusal body = %+v, want error text and missing day 1", refusal)
	}

	code, body, hdr := readyz(t, srv)
	if code != http.StatusServiceUnavailable || body.Ready || body.Status != "down" {
		t.Fatalf("readyz below floor = %d %+v, want 503 down", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("readyz down without Retry-After")
	}
	// Liveness and metrics must not couple to the floor.
	for _, target := range []string{"/healthz", "/metrics"} {
		if rec := getRec(srv, target); rec.Code != http.StatusOK {
			t.Errorf("%s below floor: status %d", target, rec.Code)
		}
	}
}

// TestHealScrubCatchesSilentRot: mtime-preserving bit rot is invisible
// to the directory fingerprint; only the scrubber's byte re-read can
// catch it. One poll tick must go rot -> quarantine -> repair -> fresh
// full-coverage generation.
func TestHealScrubCatchesSilentRot(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	victim := store.ShardFileName(2)
	good := make(map[string][]byte)
	for _, name := range []string{victim, "jobs.supremm", "jobs.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		good[name] = b
	}
	chaos := faultinject.NewServeChaos(20260809, dir, good)

	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	genBefore := srv.Snapshot().Gen

	if err := chaos.RotFile(victim, 3); err != nil {
		t.Fatal(err)
	}
	// The rot is silent: size and mtime are unchanged, so the poll's
	// fingerprint check alone would find nothing to do.
	if fp := DirFingerprint(dir); fp != srv.Snapshot().Fingerprint {
		t.Fatal("bit rot changed the directory fingerprint; it must be silent")
	}

	reloaded, err := srv.MaybeReload()
	if err != nil {
		t.Fatalf("poll over rotted shard: %v", err)
	}
	if !reloaded {
		t.Fatal("scrub tick did not flow into a reload")
	}
	snap := srv.Snapshot()
	if snap.Gen == genBefore {
		t.Fatal("generation did not advance")
	}
	if cov := snap.Coverage; cov.Degraded || cov.Ratio != 1 {
		t.Fatalf("post-scrub coverage = %+v, want full (repaired)", cov)
	}
	repaired, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, good[victim]) {
		t.Fatal("repaired shard differs from pristine bytes")
	}
	if s, v := srv.met.scrubSweeps.Load(), srv.met.shardsScrubbed.Load(); s < 1 || v < 3 {
		t.Errorf("scrub metrics sweeps=%d verified=%d, want >=1 and >=3", s, v)
	}
	if q, r := srv.met.quarantines.Load(), srv.met.repairs.Load(); q != 1 || r != 1 {
		t.Errorf("metrics quarantines=%d repairs=%d, want 1 and 1", q, r)
	}

	// /metrics exports the heal counters.
	var met struct {
		ScrubSweeps    int64   `json:"scrub_sweeps"`
		ShardsScrubbed int64   `json:"shards_scrubbed"`
		Quarantines    int64   `json:"quarantines"`
		Repairs        int64   `json:"repairs"`
		CoverageRatio  float64 `json:"coverage_ratio"`
	}
	if err := json.Unmarshal(getRec(srv, "/metrics").Body.Bytes(), &met); err != nil {
		t.Fatal(err)
	}
	if met.Quarantines != 1 || met.Repairs != 1 || met.CoverageRatio != 1 || met.ScrubSweeps < 1 {
		t.Errorf("/metrics heal counters = %+v", met)
	}
}

// TestChaosSelfHeal is the self-heal acceptance proof (DESIGN.md §15),
// run under -race via make test-serve: 16 clients hammer the valve
// while the data directory goes healthy -> silently rotted (backing
// removed, so unrepairable) -> healed backing. Invariants:
//
//  1. every 200 body is bit-identical to EITHER the fault-free baseline
//     or the healthy-shards-only baseline — degraded serving narrows
//     answers, never corrupts them;
//  2. the degraded transition is honest: readyz says degraded, the
//     coverage ratio drops below 1 on the wire, the breaker stays
//     closed throughout (degradation is not an outage);
//  3. restoring the monolithic backing repairs the quarantined shard
//     byte-identically and converges back to ready/full coverage with
//     fault-free-baseline answers;
//  4. true handler concurrency never exceeds MaxInFlight, every 503
//     carries Retry-After, and goroutines return to baseline.
func TestChaosSelfHeal(t *testing.T) {
	leakcheck.Check(t)
	const perDay = 40
	full := dayStore(3, perDay)
	dir := t.TempDir()
	writeDataDir(t, dir, full, fixtureSeries(30), healQuality)
	victim := store.ShardFileName(1)
	good := make(map[string][]byte)
	for _, name := range []string{victim, "jobs.supremm", "jobs.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		good[name] = b
	}
	chaos := faultinject.NewServeChaos(20260809, dir, good)

	// Two legitimate answer sets: the fault-free corpus and the
	// healthy-shards-only corpus (day 1 missing).
	fullSrv := newTestServer(t, dir)
	dirP := t.TempDir()
	writeDataDir(t, dirP, withoutDay(full, 1), fixtureSeries(30), healQuality)
	partSrv := newTestServer(t, dirP)
	fullBody := make(map[string][]byte, len(chaosTargets))
	partBody := make(map[string][]byte, len(chaosTargets))
	for _, target := range chaosTargets {
		status, body := get(t, fullSrv, target)
		if status != http.StatusOK {
			t.Fatalf("full baseline %s: %d", target, status)
		}
		fullBody[target] = body
		if status, body = get(t, partSrv, target); status != http.StatusOK {
			t.Fatalf("partial baseline %s: %d", target, status)
		}
		partBody[target] = body
	}

	const (
		maxInFlight = 4
		clients     = 16
	)
	var cur, peak atomic.Int64
	hooks := Hooks{BeforeHandle: func(_ context.Context, _ string) func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		return func() { cur.Add(-1) }
	}}
	srv, err := New(Config{
		DataDir:          dir,
		SelfHeal:         true,
		ScrubBudgetBytes: -1,
		MaxInFlight:      maxInFlight,
		MaxQueue:         8,
		RetryAfterSec:    1,
		Hooks:            hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	startGen := srv.Snapshot().Gen

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
				rec := getRec(srv, target)
				switch rec.Code {
				case http.StatusOK:
					body := rec.Body.Bytes()
					if !bytes.Equal(body, fullBody[target]) && !bytes.Equal(body, partBody[target]) {
						report(errNotBaseline(target, body))
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
	fail := func(format string, args ...any) {
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	// --- Phase 1: remove the monolithic backing so the coming rot is
	// unrepairable. The fingerprint sees the removal; the reload stays
	// full-coverage (every shard is still healthy).
	for _, backing := range []string{"jobs.supremm", "jobs.jsonl"} {
		if err := os.Remove(filepath.Join(dir, backing)); err != nil {
			fail("remove backing: %v", err)
		}
	}
	if _, err := srv.MaybeReload(); err != nil {
		fail("reload after backing removal: %v", err)
	}
	if cov := srv.Snapshot().Coverage; cov.Degraded {
		fail("coverage degraded before any shard damage: %+v", cov)
	}

	// --- Phase 2: silent rot on the victim shard. The fingerprint must
	// not move; the scrub tick must quarantine and the same poll must
	// publish a degraded generation.
	if err := chaos.RotFile(victim, 3); err != nil {
		fail("rot: %v", err)
	}
	if DirFingerprint(dir) != srv.Snapshot().Fingerprint {
		fail("rot was not silent")
	}
	reloaded, err := srv.MaybeReload()
	if err != nil {
		fail("poll over rot: %v", err)
	}
	if !reloaded {
		fail("scrub tick did not trigger the degraded reload")
	}
	cov := srv.Snapshot().Coverage
	if !cov.Degraded || cov.RowsServed != 2*perDay || cov.RowsTotal != 3*perDay {
		fail("degraded coverage = %+v, want 80/120", cov)
	}
	code, body, _ := readyz(t, srv)
	if code != http.StatusOK || body.Status != "degraded" || !body.Ready {
		fail("readyz during degradation = %d %+v, want 200 degraded", code, body)
	}
	if body.Breaker != "closed" {
		fail("breaker %q during degradation, want closed (degradation is not an outage)", body.Breaker)
	}
	if hdr := getRec(srv, chaosTargets[1]).Header().Get("X-Supremm-Coverage"); hdr == "" || hdr == "1" {
		fail("degraded X-Supremm-Coverage = %q, want a ratio below 1", hdr)
	}
	// Soak a little in the degraded steady state: polls find nothing new.
	for i := 0; i < 5; i++ {
		if reloaded, err := srv.MaybeReload(); err != nil || reloaded {
			fail("degraded steady state not steady: reloaded=%v err=%v", reloaded, err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// --- Phase 3: heal the backing. The next poll repairs the
	// quarantined day from it and converges to ready, full coverage.
	if err := chaos.HealFiles("jobs.supremm"); err != nil {
		fail("heal backing: %v", err)
	}
	if reloaded, err := srv.MaybeReload(); err != nil || !reloaded {
		fail("repair poll: reloaded=%v err=%v", reloaded, err)
	}
	if cov := srv.Snapshot().Coverage; cov.Degraded || cov.Ratio != 1 {
		fail("post-repair coverage = %+v, want full", cov)
	}

	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-soak invariants.
	repairedBytes, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repairedBytes, good[victim]) {
		t.Error("repaired shard differs from pristine bytes")
	}
	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Action != store.ActionQuarantine || events[1].Action != store.ActionRepair {
		t.Errorf("quarantine log = %+v, want quarantine then repair", events)
	}
	if code, body, _ := readyz(t, srv); code != http.StatusOK || body.Status != "ready" {
		t.Errorf("final readyz = %d %+v, want 200 ready", code, body)
	}
	if opens := srv.dir.brk.dto().Opens; opens != 0 {
		t.Errorf("breaker opened %d times; self-heal must not trip it", opens)
	}
	if g := srv.Snapshot().Gen; g <= startGen {
		t.Errorf("final generation %d not past start %d", g, startGen)
	}
	if p := peak.Load(); p > maxInFlight {
		t.Errorf("true concurrency peaked at %d, limit %d", p, maxInFlight)
	}
	for _, target := range chaosTargets {
		status, got := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("post-heal %s: status %d", target, status)
		}
		if !bytes.Equal(got, fullBody[target]) {
			t.Errorf("post-heal %s diverges from fault-free baseline", target)
		}
	}
	if counts := chaos.Counts(); counts[faultinject.KindBitRot] == 0 {
		t.Errorf("fault counts incomplete: %v", counts)
	}
}
