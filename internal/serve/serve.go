// Package serve is the query-serving layer of the reproduction: the
// XDMoD-style HTTP JSON API (cmd/supremmd) over an ingested data
// directory. It holds the warehouse in immutable, atomically swapped
// snapshots (day shard set + realm + quality report, and the cache of
// the responses rendered from them), answers every request through one
// sequence over one endpoint table (request.go), and instruments itself
// with an expvar-style /metrics endpoint. See DESIGN.md §10.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	// CacheSize caps the query-result cache entries of one generation
	// (each starts with an empty cache); 0 means the default (1024),
	// negative disables caching.
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
	cfg        Config
	mux        *http.ServeMux
	snap       atomic.Pointer[Snapshot]
	met        *Metrics
	adm        *admission // nil = admission disabled
	retryAfter int
	// dir owns the data directory, the breaker and every write of snap
	// (reload.go).
	dir *reloader
}

// New loads the initial snapshot from cfg.DataDir and puts the endpoint
// table behind the mux.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, met: newMetrics()}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	if size < 0 {
		size = 0 // disabled
	}
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
		snap: &s.snap, cacheSize: size, met: s.met,
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
	// Dispatch is the mux's (path cleaning and redirects with it); every
	// answer, the 404 and 405 included, is the one sequence's (request.go).
	s.mux = http.NewServeMux()
	s.met.requests[otherRoute] = &atomic.Int64{}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, nil) })
	for i := range endpoints {
		ep := &endpoints[i]
		s.met.requests[ep.path] = &atomic.Int64{}
		s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, ep) })
	}
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
// in. Concurrent queries keep using the old snapshot, and its response
// cache, until the swap; the new one starts with an empty cache. A failed
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

// endpoint is one row of the routing table: everything the request
// sequence (request.go) needs to know about a route.
type endpoint struct {
	method string
	path   string
	// data puts the row behind admission, the per-request deadline, the
	// chaos hook, the coverage floor and the response cache. The other
	// rows are the ops endpoints, which always answer.
	data bool
	// keys are the query parameters the row accepts; any other, or one
	// repeated, is a 400. An anyQuery row never looks at its query string:
	// probes and scrapers append what they like.
	keys     []string
	anyQuery bool
	// fn computes the row's answer on snap: a value, sent as indented
	// JSON, or []byte, plain text sent as it is. With an error the status
	// says whose fault it was, the request's (400) or ours (500); a
	// context error is the sequence's to name.
	fn func(s *Server, ctx context.Context, snap *Snapshot, p Params) (status int, v any, err error)
}

func filtered(keys ...string) []string { return append(keys, filterKeys...) }

var endpoints = []endpoint{
	{method: "GET", path: "/api/v1/health", fn: (*Server).health},
	{method: "GET", path: "/healthz", anyQuery: true, fn: (*Server).healthz},
	{method: "GET", path: "/readyz", anyQuery: true, fn: (*Server).readyz},
	{method: "GET", path: "/metrics", anyQuery: true, fn: (*Server).metrics},
	{method: "POST", path: "/api/v1/reload", anyQuery: true, fn: (*Server).reload},
	{method: "GET", path: "/api/v1/aggregate", data: true, keys: filtered("metric"), fn: (*Server).aggregate},
	{method: "GET", path: "/api/v1/distribution", data: true, keys: filtered("metric", "bins"), fn: (*Server).distribution},
	{method: "GET", path: "/api/v1/query", data: true, keys: filtered("group", "metrics", "limit", "normalize"), fn: (*Server).query},
	{method: "GET", path: "/api/v1/profiles/users", data: true, keys: []string{"n"}, fn: (*Server).userProfiles},
	{method: "GET", path: "/api/v1/profiles/apps", data: true, keys: []string{"apps"}, fn: (*Server).appProfiles},
	{method: "GET", path: "/api/v1/efficiency", data: true, keys: []string{"limit", "n", "min_nodehours"}, fn: (*Server).efficiency},
	{method: "GET", path: "/api/v1/trends", data: true, fn: (*Server).trends},
	{method: "GET", path: "/api/v1/workload", data: true, fn: (*Server).workload},
	{method: "GET", path: "/api/v1/quality", data: true, fn: (*Server).quality},
	{method: "GET", path: "/api/v1/report", data: true, keys: []string{"suite"}, fn: (*Server).reportSuite},
}

// ---- endpoint functions ----

func (s *Server) health(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	return http.StatusOK, healthDTO{
		Status:     "ok",
		Generation: snap.Gen,
		Cluster:    snap.Realm.Cluster,
		Jobs:       snap.Realm.Store.Len(),
		Series:     len(snap.Realm.Series),
		Shards:     snap.Shards,
	}, nil
}

func (s *Server) metrics(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	return http.StatusOK, s.met.snapshotDTO(snap, s.adm, s.dir.brk), nil
}

// healthz is the liveness probe: it answers 200 whenever the process can
// serve HTTP at all, regardless of data-directory health — restarting
// the daemon does not fix a corrupt directory, so liveness must not
// couple to it.
func (s *Server) healthz(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	return http.StatusOK, map[string]any{
		"status":     "live",
		"generation": snap.Gen,
		"jobs":       snap.Realm.Store.Len(),
		"coverage":   snap.Coverage,
	}, nil
}

// readyz is the readiness probe, three-state:
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
func (s *Server) readyz(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	brk := s.dir.brk.dto()
	code, status := http.StatusOK, "ready"
	switch {
	case brk.State == breakerOpen.String() || s.belowFloor(snap):
		code, status = http.StatusServiceUnavailable, "down"
	case snap.Coverage.Degraded:
		status = "degraded"
	}
	return code, map[string]any{
		"ready":                status != "down",
		"status":               status,
		"breaker":              brk.State,
		"consecutive_failures": brk.ConsecutiveFailures,
		"generation":           snap.Gen,
		"coverage":             snap.Coverage,
	}, nil
}

func (s *Server) reload(context.Context, *Snapshot, Params) (int, any, error) {
	snap, err := s.Reload()
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, map[string]any{
		"generation": snap.Gen,
		"jobs":       snap.Realm.Store.Len(),
		"cluster":    snap.Realm.Cluster,
	}, nil
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

func (s *Server) aggregate(ctx context.Context, snap *Snapshot, p Params) (int, any, error) {
	if p.Metric == "" {
		return http.StatusBadRequest, nil, errors.New("parameter metric is required")
	}
	f := realmFilter(snap, p.Filter)
	agg, err := snap.Realm.Store.AggregateParallelCtx(ctx, p.Metric, f, 1)
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, newAggDTO(p.Metric, agg), nil
}

func (s *Server) distribution(ctx context.Context, snap *Snapshot, p Params) (int, any, error) {
	if p.Metric == "" {
		return http.StatusBadRequest, nil, errors.New("parameter metric is required")
	}
	f := realmFilter(snap, p.Filter)
	vals := snap.Realm.Store.Scan(f).Values(p.Metric)
	lo, hi := 0.0, 0.0
	if len(vals) > 0 {
		lo, hi = stats.MinMax(vals)
	}
	return http.StatusOK, newDistributionDTO(p.Metric, stats.NewHistogram(vals, lo, hi, p.Bins)), nil
}

func (s *Server) query(_ context.Context, snap *Snapshot, p Params) (int, any, error) {
	q := core.Query{
		GroupBy:   p.Group,
		Metrics:   p.Metrics,
		Filter:    p.Filter,
		Limit:     p.Limit,
		Normalize: p.Normalize,
	}
	return http.StatusOK, newQueryDTO(snap.Realm.RunQuery(q)), nil
}

func (s *Server) userProfiles(_ context.Context, snap *Snapshot, p Params) (int, any, error) {
	return http.StatusOK, newProfileDTOs(snap.Realm.TopUserProfiles(p.N)), nil
}

func (s *Server) appProfiles(_ context.Context, snap *Snapshot, p Params) (int, any, error) {
	apps := p.Apps
	if len(apps) == 0 {
		apps = []string{"namd", "amber", "gromacs"} // the Fig 3 MD codes
	}
	return http.StatusOK, newProfileDTOs(snap.Realm.AppProfiles(apps)), nil
}

func (s *Server) efficiency(_ context.Context, snap *Snapshot, p Params) (int, any, error) {
	report := snap.Realm.EfficiencyReport()
	return http.StatusOK, efficiencyDTO{
		Cluster:         snap.Realm.Cluster,
		FleetEfficiency: F(snap.Realm.FleetEfficiency()),
		WastedTotal:     F(core.WastedTotal(report)),
		Users:           newUserEffDTOs(report[:min(len(report), p.Limit)]),
		Worst:           newUserEffDTOs(core.WorstOf(report, p.N, p.MinNodeHours)),
	}, nil
}

func (s *Server) trends(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	out := []trendDTO{}
	for _, t := range snap.Realm.TrendReport() {
		out = append(out, trendDTO{
			Metric: t.Metric, SlopePerDay: F(t.SlopePerDay),
			RelativePerMonth: F(t.RelativePerMonth), P: F(t.P),
			Significant: t.Significant, R2: F(t.R2), N: t.N,
		})
	}
	return http.StatusOK, out, nil
}

func (s *Server) workload(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	return http.StatusOK, newWorkloadDTO(snap.Realm.Cluster, snap.Realm.Characterize()), nil
}

func (s *Server) quality(_ context.Context, snap *Snapshot, _ Params) (int, any, error) {
	if snap.Quality == nil {
		return http.StatusOK, map[string]any{"available": false}, nil
	}
	return http.StatusOK, map[string]any{
		"available":    true,
		"quality":      snap.Quality,
		"completeness": F(snap.Quality.Completeness()),
		"degraded":     snap.Quality.Degraded(),
	}, nil
}

func (s *Server) reportSuite(_ context.Context, snap *Snapshot, p Params) (int, any, error) {
	if p.Suite == "" {
		return http.StatusBadRequest, nil, errors.New("parameter suite is required")
	}
	valid := false
	for _, who := range report.Stakeholders() {
		if string(who) == p.Suite {
			valid = true
			break
		}
	}
	if !valid {
		return http.StatusBadRequest, nil, fmt.Errorf("unknown suite %q", p.Suite)
	}
	var buf bytes.Buffer
	if err := report.SuiteWithQuality(&buf, report.Stakeholder(p.Suite), snap.Quality, snap.Realm); err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, buf.Bytes(), nil
}
