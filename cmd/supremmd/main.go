// Command supremmd is the query-serving daemon: the XDMoD-style
// analytics service over an ingested data directory, exposing the
// store/core/report query surface as an HTTP JSON API (see DESIGN.md
// §10 and the README endpoint table).
//
//	supremmd -data ./out/pipeline -addr :8090
//
// The daemon polls the data directory (-poll) and hot-reloads when a
// new ingest batch lands; POST /api/v1/reload forces it. It defends
// itself under overload (DESIGN.md §13): -max-inflight bounds
// concurrent queries with a bounded wait queue behind it, excess load
// is shed with 503 + Retry-After, -timeout cancels slow aggregations,
// and a circuit breaker keeps the last-good snapshot served while the
// data directory is torn. SIGINT/SIGTERM shed the queue and drain
// in-flight requests before exit.
//
// With -self-heal (the default, DESIGN.md §15) the daemon also scrubs
// its shards in the background on a -scrub-budget byte budget per poll
// tick, quarantines any shard whose bytes no longer match the manifest,
// repairs it from the monolithic backing when possible, and otherwise
// serves the healthy days degraded — with coverage reported on
// /healthz, /readyz, /metrics and an X-Supremm-Coverage header on every
// response. -degraded-min-coverage sets a floor below which data
// queries are refused outright.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supremm/internal/serve"
)

// options collects everything run needs; flags populate it in main,
// tests populate it directly.
type options struct {
	data    string
	addr    string
	poll    time.Duration
	drain   time.Duration
	cache   int
	workers int
	retries int

	maxInFlight      int           // 0 = serve default (64), negative disables
	maxQueue         int           // 0 = 2x maxInFlight, negative = no queue
	timeout          time.Duration // per-request deadline, 0 disables
	retryAfter       int           // Retry-After seconds on shed responses
	breakerThreshold int           // reload failures that open the breaker
	breakerBackoff   int           // breaker cooldown in poll ticks

	selfHeal    bool    // scrub/quarantine/repair + degraded serving
	scrubBudget int64   // scrubber bytes per poll tick, negative = full sweep
	minCoverage float64 // coverage floor for data queries, 0 = serve at any

	// ready receives the bound address once the listener is up.
	ready func(addr string)
	// hooks are passed through to serve.Config (tests).
	hooks serve.Hooks
}

func main() {
	var opts options
	flag.StringVar(&opts.data, "data", "data", "ingested data directory, as cmd/ingest writes it (MANIFEST.supremm + the shard-<day>.supremm files it names; plus series.jsonl, quality.json)")
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8090", "listen address")
	flag.DurationVar(&opts.poll, "poll", 10*time.Second, "data-directory poll interval for hot reload (0 disables)")
	flag.IntVar(&opts.cache, "cache", 0, "query-cache entries (0 = default 1024, negative disables)")
	flag.IntVar(&opts.workers, "workers", 0, "aggregation workers (0 = GOMAXPROCS)")
	flag.IntVar(&opts.retries, "retries", 2, "retries per snapshot load racing an ingest rewrite")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	flag.IntVar(&opts.maxInFlight, "max-inflight", 0, "max concurrently executing data queries (0 = default 64, negative disables admission control)")
	flag.IntVar(&opts.maxQueue, "max-queue", 0, "max queries waiting for a slot before shedding (0 = 2x max-inflight, negative = no queue)")
	flag.DurationVar(&opts.timeout, "timeout", 10*time.Second, "per-request deadline for data queries (0 disables)")
	flag.IntVar(&opts.retryAfter, "retry-after", 1, "Retry-After seconds on shed/timed-out responses")
	flag.IntVar(&opts.breakerThreshold, "breaker-threshold", 3, "consecutive reload failures that open the snapshot-reload breaker")
	flag.IntVar(&opts.breakerBackoff, "breaker-backoff", 2, "breaker cooldown in poll ticks (doubles per failed probe)")
	flag.BoolVar(&opts.selfHeal, "self-heal", true, "scrub shards in the background, quarantine+repair damage, serve degraded with coverage accounting")
	flag.Int64Var(&opts.scrubBudget, "scrub-budget", 0, "shard bytes the scrubber re-verifies per poll tick (0 = default 4 MiB, negative = full sweep every tick)")
	flag.Float64Var(&opts.minCoverage, "degraded-min-coverage", 0, "refuse data queries (503 + missing day ranges) when degraded coverage is below this fraction (0 = serve at any coverage)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "supremmd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled and the
// listener has drained.
func run(ctx context.Context, opts options) error {
	srv, err := serve.New(serve.Config{
		DataDir:   opts.data,
		Workers:   opts.workers,
		CacheSize: opts.cache,
		RetryMax:  opts.retries,
		Backoff: func(attempt int) {
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		},
		Now:                 time.Now,
		MaxInFlight:         opts.maxInFlight,
		MaxQueue:            opts.maxQueue,
		RequestTimeout:      opts.timeout,
		RetryAfterSec:       opts.retryAfter,
		BreakerThreshold:    opts.breakerThreshold,
		BreakerBackoffPolls: opts.breakerBackoff,
		SelfHeal:            opts.selfHeal,
		ScrubBudgetBytes:    opts.scrubBudget,
		MinCoverage:         opts.minCoverage,
		Hooks:               opts.hooks,
	})
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "supremmd: serving %s (%d jobs, cluster %s, generation %d, %d shards) on %s\n",
		opts.data, snap.Realm.Store.Len(), snap.Realm.Cluster, snap.Gen, snap.Shards, opts.addr)
	if cov := snap.Coverage; cov.Degraded {
		fmt.Fprintf(os.Stderr, "supremmd: DEGRADED generation %d: serving %d of %d rows (coverage %.4f), %d shard(s) quarantined — see %s/QUARANTINE.supremm\n",
			snap.Gen, cov.RowsServed, cov.RowsTotal, cov.Ratio, cov.MissingShards, opts.data)
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if opts.ready != nil {
		opts.ready(ln.Addr().String())
	}

	pollDone := make(chan struct{})
	if opts.poll > 0 {
		go func() {
			defer close(pollDone)
			t := time.NewTicker(opts.poll)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					reloaded, err := srv.MaybeReload()
					if err != nil {
						fmt.Fprintln(os.Stderr, "supremmd: reload:", err)
					} else if reloaded {
						s := srv.Snapshot()
						fmt.Fprintf(os.Stderr, "supremmd: reloaded %s (%d jobs, generation %d, %d/%d shards reused)\n",
							opts.data, s.Realm.Store.Len(), s.Gen, s.ShardsReused, s.Shards)
						if cov := s.Coverage; cov.Degraded {
							fmt.Fprintf(os.Stderr, "supremmd: DEGRADED generation %d: serving %d of %d rows (coverage %.4f), %d shard(s) quarantined — see %s/%s\n",
								s.Gen, cov.RowsServed, cov.RowsTotal, cov.Ratio, cov.MissingShards, opts.data, "QUARANTINE.supremm")
						}
					}
				}
			}
		}()
	} else {
		close(pollDone)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Shed first, then drain: queued requests get an immediate 503 +
	// Retry-After so the drain budget is spent only on queries already
	// executing, and new arrivals during the drain are shed too.
	srv.BeginDrain()
	fmt.Fprintln(os.Stderr, "supremmd: draining (new requests shed)...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	<-pollDone
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
