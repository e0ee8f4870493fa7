package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"supremm/internal/leakcheck"
	"supremm/internal/serve"
)

// TestShutdownShedsQueueAndDrainsInFlight is the SIGTERM contract
// test: with a slow query executing and another queued behind a
// 1-slot admission valve, cancelling the run context (what the signal
// handler does) must (1) shed the queued request immediately with
// 503 + Retry-After, (2) let the in-flight request finish with 200,
// (3) return from run without error inside the drain budget, and
// (4) leave the listener closed to new connections.
func TestShutdownShedsQueueAndDrainsInFlight(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeData(t, dir, 5)

	// block parks the first data request inside its admission slot until
	// the test releases it, so the second request is forced to queue.
	block := make(chan struct{})
	entered := make(chan string, 4)
	hooks := serve.Hooks{BeforeHandle: func(_ context.Context, path string) func() {
		entered <- path
		<-block
		return nil
	}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	readyc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serve.Config{DataDir: dir, RetryMax: 1, MaxInFlight: 1, MaxQueue: 1, Hooks: hooks},
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

	type result struct {
		status     int
		retryAfter string
		body       string
		err        error
	}
	fetch := func(target string) result {
		resp, err := http.Get("http://" + addr + target)
		if err != nil {
			return result{err: err}
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // body already read; nothing useful on error
		return result{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: string(body)}
	}

	slowc := make(chan result, 1)
	go func() { slowc <- fetch("/api/v1/aggregate?metric=cpu_idle") }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("slow request never entered its handler")
	}

	queuedc := make(chan result, 1)
	go func() { queuedc <- fetch("/api/v1/workload") }()
	// Wait until /metrics shows the second request parked in the queue;
	// metrics bypasses admission so it answers while the slot is held.
	waitQueued := func() bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			r := fetch("/metrics")
			if r.err == nil && r.status == http.StatusOK {
				var m struct {
					Admission struct {
						InQueue int `json:"in_queue"`
					} `json:"admission"`
				}
				if json.Unmarshal([]byte(r.body), &m) == nil && m.Admission.InQueue >= 1 {
					return true
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !waitQueued() {
		t.Fatal("second request never queued")
	}

	// SIGTERM arrives: the queue must shed at once, before the slow
	// request is released.
	cancel()
	select {
	case r := <-queuedc:
		if r.err != nil {
			t.Fatalf("queued request failed: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("queued request: status %d, want 503 (body %s)", r.status, r.body)
		}
		if r.retryAfter == "" {
			t.Error("queued request shed without Retry-After")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request not shed after shutdown began")
	}

	// The in-flight request completes normally inside the drain budget.
	close(block)
	select {
	case r := <-slowc:
		if r.err != nil {
			t.Fatalf("in-flight request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request: status %d (body %s)", r.status, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within the drain budget")
	}

	// The listener is gone: new connections must be refused.
	if r := fetch("/api/v1/health"); r.err == nil {
		t.Fatalf("listener still answering after drain: status %d", r.status)
	} else if !strings.Contains(r.err.Error(), "refused") && !strings.Contains(r.err.Error(), "connect") {
		t.Logf("post-drain connection failed as expected: %v", r.err)
	}
	// Drain the hook channel so nothing blocks test cleanup.
	for {
		select {
		case <-entered:
		default:
			return
		}
	}
}
