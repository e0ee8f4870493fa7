package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// The request sequence. Everything the daemon does for one HTTP request
// is one pass of
//
//	clock → recover → route → [admit → deadline → hook] → decode →
//	snapshot → [floor → cache] → render → map error → marshal →
//	[store] → write → fold
//
// through serve, the bracketed steps for data rows of the endpoint table
// only. A pass produces one record and is counted in one place,
// Metrics.fold.

// Hooks are instrumentation seams for the chaos harness and tests;
// production builds leave them unset and pay a nil check.
type Hooks struct {
	// BeforeHandle runs inside the admission slot, under the request
	// deadline, before anything else is done for a data request. A
	// non-nil returned func runs when the request finishes — the pair
	// brackets exactly the in-flight window, which is how the chaos soak
	// measures true concurrency independently of the admission gauge.
	BeforeHandle func(ctx context.Context, path string) func()
}

// cacheOutcome is what the response cache did for one request.
type cacheOutcome int

const (
	cacheNone cacheOutcome = iota // never asked: an ops row, or refused before the lookup
	cacheHit
	cacheMiss
)

// ending is how a request that got past admission stopped, when not by
// writing an answer of its own choosing.
type ending int

const (
	endedNormally  ending = iota
	endedDeadline         // the per-request deadline fired mid-render
	endedCancelled        // the client went away mid-render
	endedPanic            // recovered
)

// request is the record of one pass through the sequence, by value.
type request struct {
	route       string       // the endpoint's path, otherRoute for a 404 or 405
	verdict     admitVerdict // admitOK for an ops row, which never asks
	cache       cacheOutcome
	ended       ending
	status      int
	writeFailed bool
	elapsed     time.Duration // 0 when no clock is injected
}

const (
	jsonType = "application/json"
	textType = "text/plain; charset=utf-8"

	// otherRoute labels, in /metrics, every request that reached no row.
	otherRoute = "other"
)

// serve runs one request through the sequence; ep is the row of the
// endpoint table whose path the mux matched, nil when it matched none.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ep *endpoint) {
	rec := request{route: otherRoute}
	var start time.Time
	if s.cfg.Now != nil {
		start = s.cfg.Now()
	}
	// One bad request (or one bug in one endpoint) must never take the
	// whole daemon down: a panic anywhere below becomes a counted 500.
	// The write is best-effort — if the panic came mid-body the client
	// sees a torn reply. Registered first, so it runs after the slot, the
	// deadline and the hook below have been let go.
	defer func() {
		if p := recover(); p != nil {
			rec.ended = endedPanic
			s.writeError(w, &rec, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
		}
		if s.cfg.Now != nil {
			rec.elapsed = s.cfg.Now().Sub(start)
		}
		s.met.fold(rec)
	}()

	if ep == nil {
		s.writeError(w, &rec, http.StatusNotFound, fmt.Errorf("no such endpoint %q", r.URL.Path))
		return
	}
	// Rows are registered by path alone, so the wrong method arrives here
	// and not at the catch-all; HEAD is GET, as in the mux's own patterns.
	if r.Method != ep.method && !(r.Method == http.MethodHead && ep.method == http.MethodGet) {
		w.Header().Set("Allow", ep.method)
		s.writeError(w, &rec, http.StatusMethodNotAllowed, fmt.Errorf("%s requires %s", r.URL.Path, ep.method))
		return
	}
	rec.route = ep.path

	ctx := r.Context()
	if ep.data {
		// The overload controls, outermost first. Ops rows skip them: they
		// must keep answering while the daemon sheds query load, or
		// operators lose sight of the overload exactly when they need it.
		release, verdict := s.adm.acquire(ctx)
		rec.verdict = verdict
		switch verdict {
		case admitShed:
			s.writeError(w, &rec, http.StatusServiceUnavailable, errors.New("overloaded: in-flight limit and queue full"))
			return
		case admitCancelled:
			s.writeError(w, &rec, http.StatusServiceUnavailable, errors.New("overloaded: client gave up while queued"))
			return
		}
		defer release()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if h := s.cfg.Hooks.BeforeHandle; h != nil {
			if done := h(ctx, ep.path); done != nil {
				defer done()
			}
		}
	}

	var (
		q url.Values
		p Params
	)
	if !ep.anyQuery {
		q = r.URL.Query()
		var err error
		if p, err = decodeParams(q, ep.keys...); err != nil {
			s.writeError(w, &rec, http.StatusBadRequest, err)
			return
		}
	}

	// The one snapshot this request sees: floor, cache, render and the
	// coverage header all follow it, whatever is swapped in meanwhile.
	snap := s.snap.Load()
	var key string
	if ep.data {
		if s.belowFloor(snap) {
			// A partial answer would silently drop days: refuse, naming
			// exactly which, and say when to come back (a repair may
			// restore coverage on any poll tick).
			s.writeJSON(w, &rec, snap, http.StatusServiceUnavailable, map[string]any{
				"error": fmt.Sprintf("degraded coverage %.6g is below the serving floor %.6g",
					snap.Coverage.Ratio, s.cfg.MinCoverage),
				"coverage": snap.Coverage,
			})
			return
		}
		key = cacheKey(ep.path, q.Encode())
		if e, ok := snap.cache.Get(key); ok {
			rec.cache = cacheHit
			s.write(w, &rec, snap, http.StatusOK, e.contentType, e.body)
			return
		}
		rec.cache = cacheMiss
	}

	status, v, err := ep.fn(s, ctx, snap, p)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		// The aggregation was cancelled, nothing is cached, and the
		// client is told to back off.
		rec.ended, status, err = endedDeadline, http.StatusServiceUnavailable, errors.New("overloaded: request deadline exceeded")
	case errors.Is(err, context.Canceled):
		rec.ended, status, err = endedCancelled, http.StatusServiceUnavailable, errors.New("overloaded: request cancelled")
	}
	if err != nil {
		s.writeError(w, &rec, status, err)
		return
	}

	e := cacheEntry{contentType: jsonType}
	if text, ok := v.([]byte); ok {
		e = cacheEntry{body: text, contentType: textType}
	} else if e.body, err = marshalBody(v); err != nil {
		s.writeError(w, &rec, http.StatusInternalServerError, err)
		return
	}
	if ep.data {
		snap.cache.Put(key, e)
	} else {
		// An ops answer describes the daemon, not a snapshot: like an
		// error it names the served one (reload's: the one it published).
		snap = s.snap.Load()
	}
	s.write(w, &rec, snap, status, e.contentType, e.body)
}

// belowFloor reports whether snap is degraded below Config.MinCoverage,
// the point where data queries are refused and readiness is withdrawn.
func (s *Server) belowFloor(snap *Snapshot) bool {
	return s.cfg.MinCoverage > 0 && snap.Coverage.Degraded && snap.Coverage.Ratio < s.cfg.MinCoverage
}

// marshalBody renders a JSON response body.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeError answers status with {"error": err}: every refusal and
// failure of the sequence ends here. An error has no snapshot of its own
// and names the served one.
func (s *Server) writeError(w http.ResponseWriter, rec *request, status int, err error) {
	s.writeJSON(w, rec, s.snap.Load(), status, map[string]string{"error": err.Error()})
}

// writeJSON sends a value the sequence itself made up.
func (s *Server) writeJSON(w http.ResponseWriter, rec *request, snap *Snapshot, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"internal error"}`+"\n")
	}
	s.write(w, rec, snap, status, jsonType, body)
}

// write sends one response and notes on rec how that went. snap is the
// snapshot the body was computed on: its coverage ratio goes with it, so
// a client can always tell whether its answer came from a degraded store
// — cached, or sent across a swap. Every 503 says "not now" — shed,
// timed out, below the floor, not ready — and carries Retry-After, so
// well-behaved clients and balancers back off.
func (s *Server) write(w http.ResponseWriter, rec *request, snap *Snapshot, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("X-Supremm-Coverage", strconv.FormatFloat(snap.Coverage.Ratio, 'g', 6, 64))
	if status == http.StatusServiceUnavailable {
		h.Set("Retry-After", strconv.Itoa(s.retryAfter))
	}
	w.WriteHeader(status)
	rec.status = status
	if _, err := w.Write(body); err != nil {
		// The client went away mid-response; nothing can be sent to it,
		// so the failure is only counted.
		rec.writeFailed = true
	}
}
