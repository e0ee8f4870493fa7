package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"supremm/internal/leakcheck"
	"supremm/internal/serve"
	"supremm/internal/store"
)

// writeData materializes a minimal data directory for the daemon: the
// day shards under their manifest, and a series.
func writeData(t *testing.T, dir string, jobs int) {
	t.Helper()
	st := store.New()
	for i := 0; i < jobs; i++ {
		r := store.JobRecord{
			JobID:   int64(1 + i),
			Cluster: "ranger",
			User:    fmt.Sprintf("u%d", i%3),
			App:     "namd",
			Nodes:   2,
			Submit:  int64(100 * i),
			Start:   int64(100*i + 10),
			End:     int64(100*i + 3610),
			Status:  "completed",
			Samples: 2,
		}
		r.CPUIdleFrac = 0.2
		st.Add(r)
	}
	if err := store.WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	samples := []store.SystemSample{{Time: 600, ActiveNodes: 4, BusyNodes: 2}}
	if err := store.AtomicWriteFile(dir, "series.jsonl", func(f *os.File) error {
		return store.SaveSeries(f, samples)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, makes a
// real HTTP request, then cancels the context and expects a clean
// drained exit.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir, 5)

	ctx, cancel := context.WithCancel(context.Background())
	readyc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serve.Config{DataDir: dir, RetryMax: 1},
			options{addr: "127.0.0.1:0", drain: 5 * time.Second, ready: func(addr string) { readyc <- addr }})
	}()

	var addr string
	select {
	case addr = <-readyc:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get("http://" + addr + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: status %d: %s", resp.StatusCode, body)
	}
	var h struct {
		Status string `json:"status"`
		Jobs   int    `json:"jobs"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 5 {
		t.Fatalf("health = %+v", h)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
}

// TestRunBadDataDir exercises the startup failure path.
func TestRunBadDataDir(t *testing.T) {
	err := run(context.Background(), serve.Config{DataDir: filepath.Join(t.TempDir(), "absent")},
		options{addr: "127.0.0.1:0", drain: time.Second})
	if err == nil {
		t.Fatal("run succeeded on a missing data directory")
	}
}

// TestFlagsBind: each flag lands in the serve.Config field, or the
// listener option, that it names. The argv gives every registered flag
// a value other than its default, so a flag added without a check here
// fails the test.
func TestFlagsBind(t *testing.T) {
	fs := flag.NewFlagSet("supremmd", flag.ContinueOnError)
	cfg, opts := flags(fs)
	if err := fs.Parse([]string{
		"-data", "/srv/supremm", "-addr", "10.0.0.1:9000", "-poll", "3s", "-drain", "4s",
		"-cache", "7", "-retries", "5", "-max-inflight", "9", "-max-queue", "11", "-timeout", "6s",
		"-retry-after", "13", "-breaker-threshold", "17", "-breaker-backoff", "19",
		"-self-heal=false", "-scrub-budget", "-1", "-degraded-min-coverage", "0.5",
		"-debug-addr", "127.0.0.1:6060",
	}); err != nil {
		t.Fatal(err)
	}
	set, all := 0, 0
	fs.Visit(func(*flag.Flag) { set++ })
	fs.VisitAll(func(f *flag.Flag) {
		all++
		if f.Value.String() == f.DefValue {
			t.Errorf("-%s is parsed at its default %q; give it another value", f.Name, f.DefValue)
		}
	})
	if set != all {
		t.Errorf("argv sets %d of %d flags", set, all)
	}
	want := serve.Config{
		DataDir: "/srv/supremm", CacheSize: 7, RetryMax: 5, MaxInFlight: 9, MaxQueue: 11,
		RequestTimeout: 6 * time.Second, RetryAfterSec: 13, BreakerThreshold: 17, BreakerBackoffPolls: 19,
		SelfHeal: false, ScrubBudgetBytes: -1, MinCoverage: 0.5,
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("serve.Config = %+v\nwant %+v", *cfg, want)
	}
	if opts.addr != "10.0.0.1:9000" || opts.poll != 3*time.Second || opts.drain != 4*time.Second || opts.debugAddr != "127.0.0.1:6060" {
		t.Errorf("options = addr %q, poll %v, drain %v, debug-addr %q; want 10.0.0.1:9000, 3s, 4s, 127.0.0.1:6060",
			opts.addr, opts.poll, opts.drain, opts.debugAddr)
	}
}

// startRun runs the daemon over a five-job directory with opts until
// the returned stop is called, and returns the data listener's address
// and the profiler's ("" when run started none).
func startRun(t *testing.T, opts options) (addr, debug string, stop func()) {
	t.Helper()
	dir := t.TempDir()
	writeData(t, dir, 5)
	ctx, cancel := context.WithCancel(context.Background())
	readyc, debugc := make(chan string, 1), make(chan string, 1)
	opts.ready = func(addr string) { readyc <- addr }
	opts.debugReady = func(addr string) { debugc <- addr }
	done := make(chan error, 1)
	go func() { done <- run(ctx, serve.Config{DataDir: dir, RetryMax: 1}, opts) }()
	select {
	case addr = <-readyc:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	select {
	case debug = <-debugc:
	default:
	}
	return addr, debug, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after cancel, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain after cancel")
		}
	}
}

// status GETs url and returns the response status.
func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestDebugListener: -debug-addr serves the profiler on its own
// listener, which the data listener does not; the default flags start
// none; and the drain closes it, leaving no goroutine behind.
func TestDebugListener(t *testing.T) {
	leakcheck.Check(t)
	fs := flag.NewFlagSet("supremmd", flag.ContinueOnError)
	_, opts := flags(fs)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-poll", "0"}); err != nil {
		t.Fatal(err)
	}
	addr, debug, stop := startRun(t, *opts)
	if debug != "" {
		t.Errorf("the default flags started a profiler on %s", debug)
	}
	if got := status(t, "http://"+addr+"/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("data listener /debug/pprof/: %d, want 404", got)
	}
	stop()

	opts.debugAddr = "127.0.0.1:0"
	addr, debug, stop = startRun(t, *opts)
	if debug == "" {
		t.Fatal("-debug-addr started no profiler")
	}
	if got := status(t, "http://"+debug+"/debug/pprof/"); got != http.StatusOK {
		t.Errorf("profiler /debug/pprof/: %d, want 200", got)
	}
	if got := status(t, "http://"+debug+"/debug/pprof/goroutine?debug=1"); got != http.StatusOK {
		t.Errorf("profiler goroutine profile: %d, want 200", got)
	}
	if got := status(t, "http://"+addr+"/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("data listener /debug/pprof/: %d, want 404", got)
	}
	stop()
	if resp, err := http.Get("http://" + debug + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Error("the profiler still answers after the drain")
	}
}
