// Package serve is the query-serving layer of the reproduction: the
// XDMoD-style HTTP JSON API (cmd/supremmd) over an ingested data
// directory. It holds the warehouse in immutable, atomically swapped
// snapshots (indexed store + realm + quality report), caches rendered
// responses keyed by store generation, and instruments itself with an
// expvar-style /metrics endpoint. See DESIGN.md §10.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// Config configures a Server.
type Config struct {
	// DataDir is the ingested data directory, as cmd/ingest writes it:
	// MANIFEST.supremm and the shard-<day>.supremm files it names (the
	// job store — see reloader.read), optional series.jsonl and
	// quality.json, and jobs.supremm / jobs.jsonl, which only shard
	// repair reads.
	DataDir string
	// Workers bounds the aggregation fan-out; 0 means GOMAXPROCS. The
	// worker count never changes results (store.AggregateParallelCtx).
	Workers int
	// CacheSize caps the query-result cache entries; 0 means the
	// default (1024), negative disables caching.
	CacheSize int
	// RetryMax and Backoff carry the ingest retry idiom into snapshot
	// loads: a load racing an ingest rewrite is retried rather than
	// failed (see reloader.load).
	RetryMax int
	Backoff  func(attempt int)
	// Now supplies the clock for latency metrics. The serve core never
	// reads the wall clock itself (the walltime invariant); cmd/supremmd
	// injects time.Now, tests inject fakes or nothing.
	Now func() time.Time

	// MaxInFlight bounds concurrently executing data queries; 0 means
	// the default (64), negative disables admission control entirely.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed with 503 + Retry-After. 0 means the default
	// (2x MaxInFlight), negative means no queue (shed at the limit).
	MaxQueue int
	// RequestTimeout is the per-request deadline for admitted data
	// queries, propagated through context into the aggregation kernels
	// so a slow query is cancelled instead of piling up; 0 disables.
	RequestTimeout time.Duration
	// RetryAfterSec is the Retry-After header value on shed and
	// timed-out responses; 0 means the default (1).
	RetryAfterSec int
	// BreakerThreshold is the consecutive reload failures that open the
	// snapshot-reload circuit breaker; 0 means the default (3).
	BreakerThreshold int
	// BreakerBackoffPolls is the breaker's initial open cooldown in
	// poll ticks (doubling per failed probe, capped); 0 means the
	// default (2).
	BreakerBackoffPolls int
	// Open, when non-nil, replaces os.Open for snapshot data files —
	// the seam the chaos harness uses to inject slow or failing reads.
	// Every read of the reload sequence goes through it (manifest, shard
	// files in the load and the scrub step, series.jsonl, the repair
	// backing) except quality.json's. A shard that cannot be read
	// through it is damage; any other failed read fails the attempt.
	Open func(path string) (io.ReadCloser, error)
	// Hooks are chaos/test instrumentation; see Hooks.
	Hooks Hooks

	// SelfHeal selects what a reload does about a shard that fails its
	// manifest entry (DESIGN.md §13.2, §15). Off (the zero value) is the
	// strict policy: the load fails. On, a damaged shard is moved aside,
	// rebuilt from the repair backing if that reproduces the manifest's
	// exact bytes and served as missing (with coverage accounting) if
	// not, and every poll scrubs for rot the fingerprint cannot see.
	// Under either policy a well-formed shard of its day that the
	// manifest does not describe is a write in progress, never damage:
	// the load fails and nothing is moved.
	SelfHeal bool
	// ScrubBudgetBytes bounds the shard bytes the scrubber re-reads per
	// poll tick; 0 means the default (4 MiB), negative scrubs the whole
	// set every tick (tests). Ignored unless SelfHeal is on.
	ScrubBudgetBytes int64
	// MinCoverage is the coverage floor for data queries: a degraded
	// snapshot covering less than this fraction of the manifest's rows
	// answers data queries 503 (with Retry-After and the missing day
	// ranges) instead of serving misleadingly partial results. 0 serves
	// at any coverage. Ops endpoints always answer.
	MinCoverage float64
}

const (
	defaultCacheSize   = 1024
	defaultMaxInFlight = 64
	defaultRetryAfter  = 1
	defaultScrubBudget = 4 << 20
)

// Server is the query daemon: an http.Handler over the current
// snapshot. Safe for concurrent use; Reload may run concurrently with
// requests.
type Server struct {
	cfg     Config
	workers int
	mux     *http.ServeMux
	// routeMethods maps exact route paths to their method, so the
	// catch-all can answer 405 (the mux's own 405 is shadowed by the
	// catch-all pattern).
	routeMethods map[string]string
	snap         atomic.Pointer[Snapshot]
	cache        *Cache
	met          *Metrics
	adm          *admission // nil = admission disabled
	retryAfter   int
	// dir owns the data directory, the breaker and every write of snap
	// (reload.go).
	dir *reloader
}

// New loads the initial snapshot from cfg.DataDir and assembles the
// routing table.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, workers: cfg.Workers, met: newMetrics()}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	if size < 0 {
		size = 0 // disabled
	}
	s.cache = newCache(size)
	limit := cfg.MaxInFlight
	if limit == 0 {
		limit = defaultMaxInFlight
	}
	if limit > 0 {
		queueCap := cfg.MaxQueue
		if queueCap == 0 {
			queueCap = 2 * limit
		}
		s.adm = newAdmission(limit, queueCap)
	}
	s.retryAfter = cfg.RetryAfterSec
	if s.retryAfter <= 0 {
		s.retryAfter = defaultRetryAfter
	}
	s.dir = &reloader{
		dir: cfg.DataDir, open: cfg.Open, retryMax: cfg.RetryMax, backoff: cfg.Backoff,
		selfHeal: cfg.SelfHeal, scrubBudget: cfg.ScrubBudgetBytes, clock: cfg.Now,
		snap: &s.snap, cache: s.cache, met: s.met,
		brk: newBreaker(cfg.BreakerThreshold, cfg.BreakerBackoffPolls),
	}
	if s.dir.open == nil {
		s.dir.open = osOpen
	}
	if s.dir.scrubBudget == 0 {
		s.dir.scrubBudget = defaultScrubBudget
	}
	if t := s.dir.force(); t.err != nil { // the first trip: generation 1
		return nil, t.err
	}
	s.routes()
	return s, nil
}

// BeginDrain puts the daemon into shed-aware shutdown: every queued
// request and every new arrival is answered 503 + Retry-After
// immediately, while requests already executing run to completion
// (http.Server.Shutdown collects those). Called by cmd/supremmd when
// SIGTERM/SIGINT arrives, before the listener drain, so the drain
// budget is spent on work that started — never on a queue that would
// be killed anyway.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Snapshot returns the current snapshot (never nil after New).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload loads a fresh snapshot from the data directory and swaps it
// in. Concurrent queries keep using the old snapshot until the swap;
// the old generation's cache entries are purged afterwards. A failed
// load leaves the served snapshot untouched — the daemon keeps
// answering from the last-good generation — and feeds the reload
// circuit breaker; a success closes the breaker whatever its state.
// Reload is the forced path (POST /api/v1/reload): it always attempts
// the load, even while the breaker is open, and runs no scrub step.
func (s *Server) Reload() (*Snapshot, error) {
	t := s.dir.force()
	return t.snap, t.err
}

// MaybeReload is the poll step cmd/supremmd drives on a ticker
// (fsnotify-free hot reload): under self-heal one scrub step, then a
// reload only if the data directory's fingerprint differs from the
// served snapshot's. While the breaker is open the load is skipped (no
// load, no error) until a probe is due; the last-good snapshot serves
// throughout. The step runs under the mutex a forced Reload takes:
// pollers that all saw one change queue behind the first, then find
// the fingerprint current — one generation per directory change.
func (s *Server) MaybeReload() (bool, error) {
	t := s.dir.poll()
	return t.snap != nil, t.err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers a handler under method+path and records the pair for
// the catch-all's 405 handling.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	s.routeMethods[path] = method
	s.mux.HandleFunc(method+" "+path, h)
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.routeMethods = make(map[string]string)
	// Ops endpoints bypass admission: they must answer while the daemon
	// sheds query load (panic recovery still applies via instrument).
	s.route("GET", "/api/v1/health", s.instrument("/api/v1/health", s.handleHealth))
	s.route("GET", "/healthz", s.instrument("/healthz", s.handleHealthz))
	s.route("GET", "/readyz", s.instrument("/readyz", s.handleReadyz))
	s.route("GET", "/metrics", s.instrument("/metrics", s.handleMetrics))
	s.route("POST", "/api/v1/reload", s.instrument("/api/v1/reload", s.handleReload))
	s.data("/api/v1/aggregate", append([]string{"metric"}, filterKeys...), s.aggregate)
	s.data("/api/v1/distribution", append([]string{"metric", "bins"}, filterKeys...), s.distribution)
	s.data("/api/v1/query", append([]string{"group", "metrics", "limit", "normalize"}, filterKeys...), s.query)
	s.data("/api/v1/profiles/users", []string{"n"}, s.userProfiles)
	s.data("/api/v1/profiles/apps", []string{"apps"}, s.appProfiles)
	s.data("/api/v1/efficiency", []string{"limit", "n", "min_nodehours"}, s.efficiency)
	s.data("/api/v1/trends", nil, s.trends)
	s.data("/api/v1/workload", nil, s.workload)
	s.data("/api/v1/quality", nil, s.quality)
	s.text("/api/v1/report", []string{"suite"}, s.reportSuite)
	s.mux.HandleFunc("/", s.instrument("other", func(w http.ResponseWriter, r *http.Request) int {
		if method, ok := s.routeMethods[r.URL.Path]; ok && method != r.Method {
			w.Header().Set("Allow", method)
			return s.writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("%s requires %s", r.URL.Path, method))
		}
		return s.writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %q", r.URL.Path))
	}))
}

// instrument wraps a handler with panic recovery, request counting and
// the latency histogram. Handlers return the status code they wrote.
func (s *Server) instrument(path string, fn func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	route := &atomic.Int64{}
	s.met.requests[path] = route
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		status := s.recoverWrap(fn, w, r)
		var elapsed time.Duration
		if !start.IsZero() {
			elapsed = s.now().Sub(start)
		}
		s.met.observe(route, status, elapsed)
	}
}

func (s *Server) now() time.Time {
	if s.cfg.Now == nil {
		return time.Time{}
	}
	return s.cfg.Now()
}

// data registers a cached JSON GET endpoint behind the admission
// guard: admit (or shed), decode params, consult the generation-keyed
// cache, compute under the request deadline, render, store.
func (s *Server) data(path string, keys []string, fn func(context.Context, *Snapshot, Params) (any, error)) {
	s.route("GET", path, s.instrument(path, s.guard(func(w http.ResponseWriter, r *http.Request) int {
		return s.serveCached(w, r, path, keys, "application/json", func(ctx context.Context, snap *Snapshot, p Params) ([]byte, error) {
			v, err := fn(ctx, snap, p)
			if err != nil {
				return nil, err
			}
			return marshalBody(v)
		})
	})))
}

// text registers a cached plain-text GET endpoint (the report suites),
// guarded like data.
func (s *Server) text(path string, keys []string, fn func(context.Context, *Snapshot, Params) ([]byte, error)) {
	s.route("GET", path, s.instrument(path, s.guard(func(w http.ResponseWriter, r *http.Request) int {
		return s.serveCached(w, r, path, keys, "text/plain; charset=utf-8", fn)
	})))
}

func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, path string, keys []string,
	contentType string, render func(context.Context, *Snapshot, Params) ([]byte, error)) int {

	q := r.URL.Query()
	p, err := decodeParams(q, keys...)
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, err)
	}
	snap := s.snap.Load()
	if s.cfg.MinCoverage > 0 && snap.Coverage.Degraded && snap.Coverage.Ratio < s.cfg.MinCoverage {
		return s.writeBelowCoverage(w, snap)
	}
	key := cacheKey(snap.Gen, path, q.Encode())
	if e, ok := s.cache.Get(key); ok {
		return s.writeBody(w, snap, http.StatusOK, e.contentType, e.body)
	}
	body, err := render(r.Context(), snap, p)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The per-request deadline fired mid-computation: the
			// aggregation was cancelled, nothing is cached, and the
			// client is told to back off.
			s.met.deadlineTimeouts.Add(1)
			return s.writeOverloaded(w, "request deadline exceeded")
		case errors.Is(err, context.Canceled):
			s.met.cancelled.Add(1)
			return s.writeOverloaded(w, "request cancelled")
		}
		if _, ok := err.(*badRequestError); ok {
			return s.writeError(w, http.StatusBadRequest, err)
		}
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	s.cache.Put(key, cacheEntry{body: body, contentType: contentType})
	return s.writeBody(w, snap, http.StatusOK, contentType, body)
}

// badRequestError marks handler failures caused by the request itself.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeBody sends one response with the coverage ratio of snap, the
// snapshot its body was computed from, so a client can always tell
// whether its answer came from a degraded store — cached or sent across
// a swap. An error has no snapshot of its own and names the served one.
func (s *Server) writeBody(w http.ResponseWriter, snap *Snapshot, status int, contentType string, body []byte) int {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Supremm-Coverage", strconv.FormatFloat(snap.Coverage.Ratio, 'g', 6, 64))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The client went away mid-response; nothing can be sent to it,
		// so the failure is only counted.
		s.met.writeFailures.Add(1)
	}
	return status
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) int {
	body, merr := marshalBody(map[string]string{"error": err.Error()})
	if merr != nil {
		body = []byte(`{"error":"internal error"}` + "\n")
	}
	return s.writeBody(w, s.snap.Load(), status, "application/json", body)
}

// writeBelowCoverage refuses a data query because the degraded
// snapshot covers less of the manifest than Config.MinCoverage allows:
// 503 with Retry-After (a repair may restore coverage on any poll
// tick) and a body naming exactly which day ranges are missing, so the
// caller knows what a partial answer would have silently dropped.
func (s *Server) writeBelowCoverage(w http.ResponseWriter, snap *Snapshot) int {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter))
	body, err := marshalBody(map[string]any{
		"error": fmt.Sprintf("degraded coverage %.6g is below the serving floor %.6g",
			snap.Coverage.Ratio, s.cfg.MinCoverage),
		"coverage": snap.Coverage,
	})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	return s.writeBody(w, snap, http.StatusServiceUnavailable, "application/json", body)
}

// ---- endpoint handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) int {
	if _, err := decodeParams(r.URL.Query()); err != nil {
		return s.writeError(w, http.StatusBadRequest, err)
	}
	snap := s.snap.Load()
	body, err := marshalBody(healthDTO{
		Status:     "ok",
		Generation: snap.Gen,
		Cluster:    snap.Realm.Cluster,
		Jobs:       snap.Realm.Store.Len(),
		Series:     len(snap.Realm.Series),
		Indexed:    snap.Realm.Store.HasIndex(),
		Shards:     snap.Shards,
	})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	return s.writeBody(w, snap, http.StatusOK, "application/json", body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	snap := s.snap.Load()
	body, err := marshalBody(s.met.snapshotDTO(snap.Gen, snap.Realm.Store.Len(), s.cache, s.adm, s.dir.brk, snap.Coverage))
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	return s.writeBody(w, snap, http.StatusOK, "application/json", body)
}

// handleHealthz is the liveness probe: it answers 200 whenever the
// process can serve HTTP at all, regardless of data-directory health —
// restarting the daemon does not fix a corrupt directory, so liveness
// must not couple to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	snap := s.snap.Load()
	body, err := marshalBody(map[string]any{
		"status":     "live",
		"generation": snap.Gen,
		"jobs":       snap.Realm.Store.Len(),
		"coverage":   snap.Coverage,
	})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	return s.writeBody(w, snap, http.StatusOK, "application/json", body)
}

// handleReadyz is the readiness probe, now three-state:
//
//   - "down" (503 + Retry-After): the reload breaker is open — the
//     daemon still serves the last-good generation, but balancers
//     should prefer replicas with fresh data — or self-healing is on
//     with a coverage floor and the snapshot is below it (data queries
//     are being refused, so the replica is not useful);
//   - "degraded" (200, with the coverage block saying exactly what is
//     missing): serving, but from a partial shard set — balancers may
//     keep routing here, operators should look at the quarantine;
//   - "ready" (200): full coverage, breaker closed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) int {
	snap := s.snap.Load()
	brk := s.dir.brk.dto()
	status := "ready"
	switch {
	case brk.State == breakerOpen.String():
		status = "down"
	case s.cfg.MinCoverage > 0 && snap.Coverage.Degraded && snap.Coverage.Ratio < s.cfg.MinCoverage:
		status = "down"
	case snap.Coverage.Degraded:
		status = "degraded"
	}
	body, err := marshalBody(map[string]any{
		"ready":                status != "down",
		"status":               status,
		"breaker":              brk.State,
		"consecutive_failures": brk.ConsecutiveFailures,
		"generation":           snap.Gen,
		"coverage":             snap.Coverage,
	})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	if status == "down" {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter))
		return s.writeBody(w, snap, http.StatusServiceUnavailable, "application/json", body)
	}
	return s.writeBody(w, snap, http.StatusOK, "application/json", body)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	snap, err := s.Reload()
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	body, err := marshalBody(map[string]any{
		"generation": snap.Gen,
		"jobs":       snap.Realm.Store.Len(),
		"cluster":    snap.Realm.Cluster,
	})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, err)
	}
	return s.writeBody(w, snap, http.StatusOK, "application/json", body)
}

// realmFilter applies the realm's cluster default, mirroring
// core.Realm.RunQuery: a serve realm never leaks another cluster's
// jobs unless the query names one explicitly.
func realmFilter(snap *Snapshot, f store.Filter) store.Filter {
	if f.Cluster == "" {
		f.Cluster = snap.Realm.Cluster
	}
	return f
}

func (s *Server) aggregate(ctx context.Context, snap *Snapshot, p Params) (any, error) {
	if p.Metric == "" {
		return nil, badRequest("parameter metric is required")
	}
	f := realmFilter(snap, p.Filter)
	agg, err := snap.Realm.Store.AggregateParallelCtx(ctx, p.Metric, f, s.workers)
	if err != nil {
		return nil, err
	}
	return newAggDTO(p.Metric, agg), nil
}

func (s *Server) distribution(ctx context.Context, snap *Snapshot, p Params) (any, error) {
	if p.Metric == "" {
		return nil, badRequest("parameter metric is required")
	}
	f := realmFilter(snap, p.Filter)
	vals, _ := snap.Realm.Store.Values(p.Metric, f)
	lo, hi := 0.0, 0.0
	if len(vals) > 0 {
		lo, hi = stats.MinMax(vals)
	}
	return newDistributionDTO(p.Metric, stats.NewHistogram(vals, lo, hi, p.Bins)), nil
}

func (s *Server) query(_ context.Context, snap *Snapshot, p Params) (any, error) {
	q := core.Query{
		GroupBy:   p.Group,
		Metrics:   p.Metrics,
		Filter:    p.Filter,
		Limit:     p.Limit,
		Normalize: p.Normalize,
	}
	return newQueryDTO(snap.Realm.RunQuery(q)), nil
}

func (s *Server) userProfiles(_ context.Context, snap *Snapshot, p Params) (any, error) {
	return newProfileDTOs(snap.Realm.TopUserProfiles(p.N)), nil
}

func (s *Server) appProfiles(_ context.Context, snap *Snapshot, p Params) (any, error) {
	apps := p.Apps
	if len(apps) == 0 {
		apps = []string{"namd", "amber", "gromacs"} // the Fig 3 MD codes
	}
	return newProfileDTOs(snap.Realm.AppProfiles(apps)), nil
}

func (s *Server) efficiency(_ context.Context, snap *Snapshot, p Params) (any, error) {
	report := snap.Realm.EfficiencyReport()
	return efficiencyDTO{
		Cluster:         snap.Realm.Cluster,
		FleetEfficiency: F(snap.Realm.FleetEfficiency()),
		WastedTotal:     F(core.WastedTotal(report)),
		Users:           newUserEffDTOs(report[:min(len(report), p.Limit)]),
		Worst:           newUserEffDTOs(core.WorstOf(report, p.N, p.MinNodeHours)),
	}, nil
}

func (s *Server) trends(_ context.Context, snap *Snapshot, _ Params) (any, error) {
	out := []trendDTO{}
	for _, t := range snap.Realm.TrendReport() {
		out = append(out, trendDTO{
			Metric: t.Metric, SlopePerDay: F(t.SlopePerDay),
			RelativePerMonth: F(t.RelativePerMonth), P: F(t.P),
			Significant: t.Significant, R2: F(t.R2), N: t.N,
		})
	}
	return out, nil
}

func (s *Server) workload(_ context.Context, snap *Snapshot, _ Params) (any, error) {
	return newWorkloadDTO(snap.Realm.Cluster, snap.Realm.Characterize()), nil
}

func (s *Server) quality(_ context.Context, snap *Snapshot, _ Params) (any, error) {
	if snap.Quality == nil {
		return map[string]any{"available": false}, nil
	}
	return map[string]any{
		"available":    true,
		"quality":      snap.Quality,
		"completeness": F(snap.Quality.Completeness()),
		"degraded":     snap.Quality.Degraded(),
	}, nil
}

func (s *Server) reportSuite(_ context.Context, snap *Snapshot, p Params) ([]byte, error) {
	if p.Suite == "" {
		return nil, badRequest("parameter suite is required")
	}
	valid := false
	for _, who := range report.Stakeholders() {
		if string(who) == p.Suite {
			valid = true
			break
		}
	}
	if !valid {
		return nil, badRequest("unknown suite %q", p.Suite)
	}
	var buf bytes.Buffer
	if err := report.SuiteWithQuality(&buf, report.Stakeholder(p.Suite), snap.Quality, snap.Realm); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
