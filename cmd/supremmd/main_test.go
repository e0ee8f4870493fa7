package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

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
		done <- run(ctx, options{data: dir, addr: "127.0.0.1:0", drain: 5 * time.Second,
			retries: 1, ready: func(addr string) { readyc <- addr }})
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
	err := run(context.Background(), options{data: filepath.Join(t.TempDir(), "absent"),
		addr: "127.0.0.1:0", drain: time.Second})
	if err == nil {
		t.Fatal("run succeeded on a missing data directory")
	}
}
