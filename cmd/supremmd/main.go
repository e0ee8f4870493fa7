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
//
// -debug-addr (off by default) serves the Go profiler, net/http/pprof,
// on a listener of its own: the data listener never answers
// /debug/pprof/, and a profile is never queued or shed behind the
// admission valve. It closes when the drain ends.
//
//	go tool pprof 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"supremm/internal/serve"
	"supremm/internal/store"
)

// options is what run needs beyond the daemon's serve.Config: the
// listener and its shutdown.
type options struct {
	addr  string
	poll  time.Duration
	drain time.Duration
	// debugAddr is the profiler's listen address; empty starts none.
	debugAddr string
	// ready receives the bound address once the listener is up, and
	// debugReady the profiler's (tests).
	ready, debugReady func(addr string)
}

// flags registers supremmd's flags on fs. The daemon's configuration
// binds straight into the returned serve.Config; run adds the clock and
// the retry backoff.
func flags(fs *flag.FlagSet) (*serve.Config, *options) {
	cfg, opts := &serve.Config{}, &options{}
	fs.StringVar(&cfg.DataDir, "data", "data", "ingested data directory, as cmd/ingest writes it (MANIFEST.supremm + the shard-<day>.supremm files it names; plus series.jsonl, quality.json)")
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&opts.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate listen address, outside admission control (empty = off)")
	fs.DurationVar(&opts.poll, "poll", 10*time.Second, "data-directory poll interval for hot reload (0 disables)")
	fs.IntVar(&cfg.CacheSize, "cache", 0, "query-cache entries (0 = default 1024, negative disables)")
	fs.IntVar(&cfg.RetryMax, "retries", 2, "retries per snapshot load racing an ingest rewrite")
	fs.DurationVar(&opts.drain, "drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "max concurrently executing data queries (0 = default 64, negative disables admission control)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", 0, "max queries waiting for a slot before shedding (0 = 2x max-inflight, negative = no queue)")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", 10*time.Second, "per-request deadline for data queries (0 disables)")
	fs.IntVar(&cfg.RetryAfterSec, "retry-after", 1, "Retry-After seconds on shed/timed-out responses")
	fs.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 3, "consecutive reload failures that open the snapshot-reload breaker")
	fs.IntVar(&cfg.BreakerBackoffPolls, "breaker-backoff", 2, "breaker cooldown in poll ticks (doubles per failed probe)")
	fs.BoolVar(&cfg.SelfHeal, "self-heal", true, "scrub shards in the background, quarantine+repair damage, serve degraded with coverage accounting")
	fs.Int64Var(&cfg.ScrubBudgetBytes, "scrub-budget", 0, "shard bytes the scrubber re-verifies per poll tick (0 = default 4 MiB, negative = full sweep every tick)")
	fs.Float64Var(&cfg.MinCoverage, "degraded-min-coverage", 0, "refuse data queries (503 + missing day ranges) when degraded coverage is below this fraction (0 = serve at any coverage)")
	return cfg, opts
}

func main() {
	cfg, opts := flags(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *cfg, *opts); err != nil {
		fmt.Fprintln(os.Stderr, "supremmd:", err)
		os.Exit(1)
	}
}

// logDegraded tells the operator that generation s serves without the
// days the custody log names.
func logDegraded(dir string, s *serve.Snapshot) {
	if cov := s.Coverage; cov.Degraded {
		fmt.Fprintf(os.Stderr, "supremmd: DEGRADED generation %d: serving %d of %d rows (coverage %.4f), %d shard(s) quarantined — see %s/%s\n",
			s.Gen, cov.RowsServed, cov.RowsTotal, cov.Ratio, cov.MissingShards, dir, store.QuarantineFile)
	}
}

// run starts the daemon over cfg and blocks until ctx is cancelled and
// the listener has drained.
func run(ctx context.Context, cfg serve.Config, opts options) error {
	cfg.Backoff = func(attempt int) {
		time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
	}
	cfg.Now = time.Now
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "supremmd: serving %s (%d jobs, cluster %s, generation %d, %d shards) on %s\n",
		cfg.DataDir, snap.Realm.Store.Len(), snap.Realm.Cluster, snap.Gen, snap.Shards, opts.addr)
	logDegraded(cfg.DataDir, snap)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.debugAddr != "" {
		addr, stop, err := debugListener(opts.debugAddr)
		if err != nil {
			_ = ln.Close() // the bind error is the one to report
			return err
		}
		// Closed as run returns, after the drain: a profile can watch it.
		defer stop()
		fmt.Fprintf(os.Stderr, "supremmd: profiler on %s/debug/pprof/\n", addr)
		if opts.debugReady != nil {
			opts.debugReady(addr)
		}
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
							cfg.DataDir, s.Realm.Store.Len(), s.Gen, s.ShardsReused, s.Shards)
						logDegraded(cfg.DataDir, s)
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

// debugListener serves net/http/pprof's handlers on a listener of its
// own at addr. stop closes it, cutting off a profile in progress, and
// waits for its goroutine.
func debugListener(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "supremmd: profiler:", err)
		}
	}()
	return ln.Addr().String(), func() {
		_ = hs.Close() // best-effort: the daemon is done with it
		<-done
	}, nil
}
