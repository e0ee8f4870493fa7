package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// TestRequestModel holds the request sequence (request.go) to its
// accounting: whatever a schedule of requests does — hits and misses on
// every endpoint, bad and repeated parameters, unknown paths, wrong
// methods, a saturated valve, a queued client that gives up, a deadline
// or a cancel inside the aggregation, a panic or a stall injected
// through the hook, a snapshot below the coverage floor, a client whose
// connection fails, reloads in between — /metrics must read exactly what
// a reference model of the sequence (requestModel, written from the
// sequence's description, not from its code) says it reads, after every
// step. One driver goroutine per seed, plus the requests it parks.
func TestRequestModel(t *testing.T) {
	leakcheck.Check(t)
	seeds, steps := 24, 300
	if testing.Short() {
		seeds = 4
	}
	fixture := t.TempDir()
	writeDataDir(t, fixture, dayStore(3, 40), fixtureSeries(30), healQuality)
	for _, name := range []string{"jobs.supremm", "jobs.jsonl"} { // no repair backing: rot degrades
		if err := os.Remove(filepath.Join(fixture, name)); err != nil {
			t.Fatal(err)
		}
	}
	var reached requestModel // what the schedules got to, summed over seeds
	ran := 0
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ran++
			m := runRequestModel(t, fixture, int64(seed), steps)
			reached.total += m.total
			reached.shed += m.shed
			reached.cancelled += m.cancelled
			reached.deadlines += m.deadlines
			reached.panics += m.panics
			reached.writeFailed += m.writeFailed
			reached.hits += m.hits
			reached.misses += m.misses
			reached.queued += m.queued
			reached.refused += m.refused
			reached.evicted += m.evicted
		})
	}
	reach := map[string]int64{"shed": reached.shed, "cancelled": reached.cancelled, "deadline": reached.deadlines,
		"panic": reached.panics, "failed write": reached.writeFailed, "hit": reached.hits, "miss": reached.misses,
		"queued": reached.queued, "refused below the floor": reached.refused, "evicted": reached.evicted}
	t.Logf("%d seeds x %d steps, %d requests: %v", ran, steps, reached.total, reach)
	for name, n := range reach {
		if n == 0 && ran == seeds && !testing.Short() {
			t.Errorf("no schedule reached: %s", name)
		}
	}
}

// shot is one kind of request and what the sequence must make of it on
// an idle daemon above the coverage floor, its URL not cached.
type shot struct {
	method, target string
	route          string // its /metrics label
	data           bool   // a data row: admission, hook, floor, cache
	decodes        bool   // gets past parameter decoding
	status         int
	honoursCtx     bool // its render stops on a done context (aggregate's kernel)
}

func dataShot(target string) shot {
	path, _, _ := strings.Cut(target, "?")
	return shot{method: "GET", target: target, route: path, data: true, decodes: true,
		status: http.StatusOK, honoursCtx: path == "/api/v1/aggregate"}
}

var (
	goodShots = []shot{
		dataShot("/api/v1/aggregate?metric=cpu_idle"),
		dataShot("/api/v1/aggregate?metric=cpu_flops&user=u03"),
		dataShot("/api/v1/aggregate?user=u03&metric=cpu_flops"), // the same canonical key
		dataShot("/api/v1/aggregate?metric=mem_used&minsamples=0"),
		dataShot("/api/v1/aggregate?metric=mem_used&minsamples=2"),
		dataShot("/api/v1/aggregate?metric=mem_used&minsamples=3"),
		dataShot("/api/v1/distribution?metric=mem_used&bins=10"),
		dataShot("/api/v1/query?group=app&limit=3"),
		dataShot("/api/v1/query?limit=3&group=app"),
		dataShot("/api/v1/profiles/users?n=3"),
		dataShot("/api/v1/profiles/apps"),
		dataShot("/api/v1/efficiency"),
		dataShot("/api/v1/trends"),
		dataShot("/api/v1/workload"),
		dataShot("/api/v1/quality"),
		dataShot("/api/v1/report?suite=support"),
	}
	otherShots = []shot{
		// Refused while decoding: never reach the floor or the cache.
		{method: "GET", target: "/api/v1/aggregate?metric=bogus", route: "/api/v1/aggregate", data: true, status: 400},
		{method: "GET", target: "/api/v1/aggregate?metric=cpu_idle&metric=cpu_user", route: "/api/v1/aggregate", data: true, status: 400},
		{method: "GET", target: "/api/v1/query?limit=0", route: "/api/v1/query", data: true, status: 400},
		{method: "GET", target: "/api/v1/trends?verbose=1", route: "/api/v1/trends", data: true, status: 400},
		// Refused by the endpoint: a miss, and nothing stored.
		{method: "GET", target: "/api/v1/aggregate", route: "/api/v1/aggregate", data: true, decodes: true, status: 400},
		{method: "GET", target: "/api/v1/report?suite=nobody", route: "/api/v1/report", data: true, decodes: true, status: 400},
		// Ops rows.
		{method: "GET", target: "/api/v1/health", route: "/api/v1/health", decodes: true, status: 200},
		{method: "GET", target: "/api/v1/health?unexpected=1", route: "/api/v1/health", status: 400},
		{method: "GET", target: "/healthz?probe=7", route: "/healthz", decodes: true, status: 200},
		{method: "HEAD", target: "/healthz", route: "/healthz", decodes: true, status: 200},
		{method: "GET", target: "/readyz", route: "/readyz", decodes: true, status: 200},
		{method: "GET", target: "/metrics?scrape=1&scrape=2", route: "/metrics", decodes: true, status: 200},
		{method: "POST", target: "/api/v1/reload", route: "/api/v1/reload", decodes: true, status: 200},
		// No row.
		{method: "GET", target: "/api/v1/nothing", route: otherRoute, status: 404},
		{method: "GET", target: "/api/v1/health/", route: otherRoute, status: 404},
		{method: "POST", target: "/api/v1/aggregate?metric=cpu_idle", route: otherRoute, status: 405},
		{method: "GET", target: "/api/v1/reload", route: otherRoute, status: 405},
		{method: "DELETE", target: "/metrics", route: otherRoute, status: 405},
	}
)

// twist is what a schedule does to one request beyond choosing it.
type twist int

const (
	plain     twist = iota
	panics          // the hook panics
	stalls          // the hook takes two seconds of the injected clock
	expires         // the client's deadline passes while the hook runs
	goesAway        // the client cancels while the hook runs
	numTwists = iota
)

// requestModel is the reference: the counters of /metrics as the
// sequence's description says one request moves them.
type requestModel struct {
	byRoute                                         map[string]int64
	total, c2xx, c4xx, c5xx                         int64
	shed, cancelled, deadlines, panics, writeFailed int64
	hits, misses, admitted, queued                  int64
	refused, evicted                                int64 // not in /metrics: floor refusals and LRU evictions, for the reach report
	gen                                             uint64
	belowFloor                                      bool
	bound                                           int
	lru                                             []string // the served generation's cache keys, most recent first
}

// request counts one finished request and returns the status it must
// have been answered with.
func (m *requestModel) request(s shot, tw twist, verdict admitVerdict, brokenPipe bool) int {
	status, route := s.status, s.route
	switch {
	case !s.data:
		if s.route == "/readyz" && m.belowFloor {
			status = 503
		}
	case verdict == admitShed:
		m.shed++
		status = 503
	case verdict == admitCancelled:
		m.cancelled++
		status = 503
	default:
		m.admitted++
		u, _ := url.Parse(s.target)
		key := u.Path + "?" + u.Query().Encode()
		at := -1
		for i, k := range m.lru {
			if k == key {
				at = i
			}
		}
		switch {
		case tw == panics:
			m.panics++
			status = 500
		case !s.decodes:
		case m.belowFloor:
			m.refused++
			status = 503
		case at >= 0:
			m.hits++
			m.lru = append([]string{key}, append(m.lru[:at:at], m.lru[at+1:]...)...)
			status = 200
		case tw == expires && s.honoursCtx:
			m.misses, m.deadlines, status = m.misses+1, m.deadlines+1, 503
		case tw == goesAway && s.honoursCtx:
			m.misses, m.cancelled, status = m.misses+1, m.cancelled+1, 503
		default:
			m.misses++
			if status == 200 {
				m.lru = append([]string{key}, m.lru...)
				if len(m.lru) > m.bound {
					m.evicted++
					m.lru = m.lru[:m.bound]
				}
			}
		}
	}
	m.total++
	m.byRoute[route]++
	switch {
	case status >= 500:
		m.c5xx++
	case status >= 400:
		m.c4xx++
	default:
		m.c2xx++
	}
	if brokenPipe {
		m.writeFailed++
	}
	if s.route == "/api/v1/reload" && status == 200 {
		m.published()
	}
	return status
}

// published: a new generation starts with an empty cache.
func (m *requestModel) published() { m.gen, m.lru = m.gen+1, nil }

// brokenPipe is a client that went away: headers go nowhere, every body
// write fails.
type brokenPipe struct {
	header http.Header
	status int
}

func (b *brokenPipe) Header() http.Header       { return b.header }
func (b *brokenPipe) WriteHeader(status int)    { b.status = status }
func (b *brokenPipe) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

// modelHook is the schedule's hand on Hooks.BeforeHandle: the twist set
// for the next data request, taken by the first to arrive.
type modelHook struct {
	mu       sync.Mutex
	next     twist
	park     bool               // the next request waits for release
	goAway   context.CancelFunc // goesAway: the request's own cancel
	entered  chan struct{}
	release  chan struct{}
	clock    *atomic.Int64 // nil without an injected clock
	inside   atomic.Int64  // requests between the hook and its done func
	insideHi atomic.Int64
}

func (h *modelHook) before(ctx context.Context, _ string) func() {
	h.mu.Lock()
	tw, park, goAway := h.next, h.park, h.goAway
	h.next, h.park, h.goAway = plain, false, nil
	h.mu.Unlock()
	if n := h.inside.Add(1); n > h.insideHi.Load() {
		h.insideHi.Store(n)
	}
	done := func() { h.inside.Add(-1) }
	if park {
		h.entered <- struct{}{}
		<-h.release
	}
	switch tw {
	case panics:
		done() // the pair cannot bracket a window that never opened
		panic("request model: injected panic")
	case stalls:
		if h.clock != nil {
			h.clock.Add(int64(2 * time.Second))
		}
	case expires:
		<-ctx.Done()
	case goesAway:
		goAway()
	}
	return done
}

func runRequestModel(t *testing.T, fixture string, seed int64, steps int) *requestModel {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join(fixture, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rotting := filepath.Join(dir, store.ShardFileName(1))
	pristine, err := os.ReadFile(rotting)
	if err != nil {
		t.Fatal(err)
	}

	hook := &modelHook{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := Config{
		DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1, MinCoverage: 0.9,
		CacheSize: 6, MaxInFlight: 1, MaxQueue: 1, RequestTimeout: time.Hour,
		Hooks: Hooks{BeforeHandle: hook.before},
	}
	if seed%2 == 0 { // odd seeds run without a clock: the latency histogram must stay empty
		hook.clock = new(atomic.Int64)
		cfg.Now = func() time.Time { return time.Unix(0, hook.clock.Add(int64(150*time.Microsecond))) }
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &requestModel{byRoute: map[string]int64{}, gen: 1, bound: cfg.CacheSize}
	var lastGen uint64
	var lastMisses, lastParts int64 // at the previous /metrics read

	var schedule []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s\nschedule:\n  %s", seed, len(schedule), fmt.Sprintf(format, args...), strings.Join(schedule, "\n  "))
	}

	// fire sends one request and returns what the client saw.
	fire := func(ctx context.Context, s shot, broken bool) (int, http.Header) {
		req := httptest.NewRequest(s.method, s.target, nil).WithContext(ctx)
		if broken {
			w := &brokenPipe{header: http.Header{}}
			srv.ServeHTTP(w, req)
			return w.status, w.header
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Header()
	}
	// answered holds one finished request to the model.
	answered := func(s shot, tw twist, verdict admitVerdict, broken bool, status int, h http.Header) {
		t.Helper()
		want := m.request(s, tw, verdict, broken)
		if status != want {
			fail("%s %s answered %d, the model says %d", s.method, s.target, status, want)
		}
		if status == 503 && h.Get("Retry-After") == "" {
			fail("%s %s: 503 without Retry-After", s.method, s.target)
		}
		if status == 405 && h.Get("Allow") == "" {
			fail("%s %s: 405 without Allow", s.method, s.target)
		}
		if h.Get("X-Supremm-Coverage") == "" || h.Get("Content-Type") == "" {
			fail("%s %s: headers %v lack the coverage ratio or the content type", s.method, s.target, h)
		}
	}
	// one is a whole request on the driver goroutine.
	one := func(s shot, tw twist, broken bool) {
		t.Helper()
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		switch tw {
		case expires:
			ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
		case goesAway:
			ctx, cancel = context.WithCancel(ctx)
		}
		defer cancel()
		if s.data {
			hook.mu.Lock()
			hook.next, hook.goAway = tw, cancel
			hook.mu.Unlock()
		}
		status, h := fire(ctx, s, broken)
		answered(s, tw, admitOK, broken, status, h)
	}
	// reloaded follows a forced reload the schedule made itself.
	reloaded := func() {
		t.Helper()
		if _, err := srv.Reload(); err != nil {
			fail("reload: %v", err)
		}
		m.published()
	}

	pick := func(shots []shot) shot { return shots[rng.Intn(len(shots))] }
	for len(schedule) < steps {
		switch p := rng.Intn(100); {
		case p < 45:
			s, tw, broken := pick(goodShots), twist(0), rng.Intn(12) == 0
			if rng.Intn(4) == 0 {
				tw = twist(rng.Intn(numTwists))
			}
			schedule = append(schedule, fmt.Sprintf("%s twist=%d broken=%v", s.target, tw, broken))
			one(s, tw, broken)
		case p < 78:
			s, broken := pick(otherShots), rng.Intn(12) == 0
			schedule = append(schedule, fmt.Sprintf("%s %s broken=%v", s.method, s.target, broken))
			one(s, plain, broken)
		case p < 88:
			// Saturate: a parks in the only slot, b waits in the only queue
			// place, c is shed; ops rows answer regardless; b gives up or
			// waits a out.
			a, b, c, bGivesUp := pick(goodShots), pick(goodShots), pick(goodShots), rng.Intn(2) == 0
			schedule = append(schedule, fmt.Sprintf("saturate: %s parks, %s queues (gives up: %v), %s is shed", a.target, b.target, bGivesUp, c.target))
			hook.mu.Lock()
			hook.park = true
			hook.mu.Unlock()
			type result struct {
				status int
				h      http.Header
			}
			aDone, bDone := make(chan result, 1), make(chan result, 1)
			go func() {
				status, h := fire(context.Background(), a, false)
				aDone <- result{status, h}
			}()
			<-hook.entered
			bCtx, bCancel := context.WithCancel(context.Background())
			go func() {
				status, h := fire(bCtx, b, false)
				bDone <- result{status, h}
			}()
			for srv.adm.dto().InQueue == 0 {
				runtime.Gosched()
			}
			m.queued++
			status, h := fire(context.Background(), c, false)
			answered(c, plain, admitShed, false, status, h)
			for _, s := range otherShots {
				if !s.data && s.route != otherRoute && s.route != "/api/v1/reload" {
					one(s, plain, false)
				}
			}
			if bGivesUp {
				bCancel()
				r := <-bDone
				answered(b, plain, admitCancelled, false, r.status, r.h)
			}
			hook.release <- struct{}{}
			r := <-aDone
			answered(a, plain, admitOK, false, r.status, r.h)
			if !bGivesUp {
				r := <-bDone
				answered(b, plain, admitOK, false, r.status, r.h)
			}
			bCancel()
		case p < 92:
			schedule = append(schedule, "forced reload")
			reloaded()
		default:
			if !m.belowFloor && rng.Intn(3) != 0 {
				continue // most of a schedule runs above the floor
			}
			// A poll: only its scrub step reads bytes the manifest vouches for.
			if m.belowFloor {
				schedule = append(schedule, "heal day 1, poll")
				if err := store.AtomicWriteBytes(dir, filepath.Base(rotting), pristine); err != nil {
					t.Fatal(err)
				}
				// The operator takes the aside copy away too: while it is
				// there the day is not moved aside a second time.
				if err := os.Remove(filepath.Join(dir, store.QuarantinedShardFile(1))); err != nil {
					t.Fatal(err)
				}
			} else {
				schedule = append(schedule, "rot day 1, poll")
				corruptFile(t, rotting)
			}
			if published, err := srv.MaybeReload(); err != nil || !published {
				fail("poll: published %v, err %v", published, err)
			}
			m.published()
			m.belowFloor = !m.belowFloor
			if snap := srv.Snapshot(); srv.belowFloor(snap) != m.belowFloor {
				fail("coverage %+v, the model says below the floor: %v", snap.Coverage, m.belowFloor)
			}
		}

		// The read is itself a request: it reports the ones before it.
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var got metricsDTO
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			fail("/metrics: %v", err)
		}
		var byRoute, classes int64
		for _, n := range got.Requests {
			byRoute += n
		}
		classes = got.Status2xx + got.Status4xx + got.Status5xx
		if got.RequestsTotal != byRoute || got.RequestsTotal != classes {
			fail("requests_total %d, by endpoint %d, by status class %d", got.RequestsTotal, byRoute, classes)
		}
		observed := int64(0)
		if cfg.Now != nil {
			observed = m.total
		}
		type counters struct {
			Gen                                             uint64
			ByRoute                                         map[string]int64
			Total, C2xx, C4xx, C5xx                         int64
			Shed, Cancelled, Deadlines, Panics, WriteFailed int64
			Hits, Misses, Admitted, Queued, Observed        int64
			Entries                                         int
			InFlight, Inside                                int64
		}
		have := counters{got.StoreGeneration, got.Requests, got.RequestsTotal, got.Status2xx, got.Status4xx, got.Status5xx,
			got.Shed, got.Cancelled, got.DeadlineTimeout, got.PanicsRecovered, got.WriteFailures,
			got.CacheHits, got.CacheMisses, got.Admission.Admitted, got.Admission.Queued, got.Latency.Observed,
			got.CacheEntries, got.Admission.InFlight, hook.inside.Load()}
		want := counters{m.gen, m.byRoute, m.total, m.c2xx, m.c4xx, m.c5xx,
			m.shed, m.cancelled, m.deadlines, m.panics, m.writeFailed,
			m.hits, m.misses, m.admitted, m.queued, observed,
			len(m.lru), 0, 0}
		if !reflect.DeepEqual(have, want) {
			fail("/metrics disagrees with the model:\n have %+v\n want %+v", have, want)
		}
		// The partition counters are the served generation's kernel
		// calls: each call sorts every shard exactly one way, and only a
		// cache miss reaches a kernel.
		parts := got.PartsRemembered + got.PartsWalked + got.PartsPruned
		if shards := int64(srv.Snapshot().Shards); parts%shards != 0 {
			fail("partitions remembered %d + walked %d + pruned %d is no multiple of the %d shards served",
				got.PartsRemembered, got.PartsWalked, got.PartsPruned, shards)
		}
		if got.StoreGeneration == lastGen && got.CacheMisses == lastMisses && parts != lastParts {
			fail("partition counters moved from %d to %d on generation %d without a cache miss", lastParts, parts, lastGen)
		}
		lastGen, lastMisses, lastParts = got.StoreGeneration, got.CacheMisses, parts
		if hi := hook.insideHi.Load(); hi > int64(cfg.MaxInFlight) {
			fail("%d requests inside the hook's window at once, the valve admits %d", hi, cfg.MaxInFlight)
		}
		m.request(shot{route: "/metrics", status: 200}, plain, admitOK, false)
	}
	return m
}
