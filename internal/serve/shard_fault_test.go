package serve

import (
	"bytes"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"supremm/internal/faultinject"
	"supremm/internal/ingest"
	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// readGoodFiles captures every data file in dir — monolithic files,
// manifest, and shards — as the chaos driver's known-good state.
func readGoodFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		good[e.Name()] = b
	}
	return good
}

// newShardFaultServer builds a sharded data directory, a chaos driver
// over it, and a server with a hair-trigger breaker (threshold 1,
// backoff 1 poll) so each test drives exactly the transition it is
// about: one bad poll opens the breaker, the next allowed poll probes.
func newShardFaultServer(t *testing.T, selfHeal bool) (*Server, *faultinject.ServeChaos, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30),
		&ingest.DataQuality{FilesScanned: 6})
	good := readGoodFiles(t, dir)
	chaos := faultinject.NewServeChaos(20260810, dir, good)
	srv, err := New(Config{DataDir: dir, BreakerThreshold: 1, BreakerBackoffPolls: 1,
		SelfHeal: selfHeal, ScrubBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv, chaos, good
}

// driveFault injects one shard-layer fault via inject, then asserts the
// serve-layer contract shared by every fault kind: the reload fails,
// the breaker opens, /readyz flips to 503 with Retry-After, the served
// generation and every data body stay pinned to the last-good
// snapshot — and after Heal the daemon converges back to ready with
// baseline bodies intact.
func driveFault(t *testing.T, srv *Server, chaos *faultinject.ServeChaos, inject func() error) {
	t.Helper()

	baseline := make(map[string][]byte, len(chaosTargets))
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d (%s)", target, status, body)
		}
		baseline[target] = body
	}
	if status, _ := get(t, srv, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before fault: status %d", status)
	}
	snapBefore := srv.Snapshot()
	genBefore := snapBefore.Gen

	if err := inject(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := srv.MaybeReload()
	if err == nil {
		t.Fatal("reload over damaged shard directory succeeded")
	}
	if reloaded {
		t.Fatal("failed reload reported a swapped snapshot")
	}
	if st := srv.dir.brk.currentState(); st != breakerOpen {
		t.Fatalf("breaker %v after failed poll, want open (threshold 1)", st)
	}

	// Not ready, and says so the way balancers expect.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz 503 without Retry-After")
	}

	// The last-good generation — the very snapshot, with its shards and
	// its coverage — keeps answering, bit-identically.
	if snap := srv.Snapshot(); snap != snapBefore {
		t.Fatalf("served snapshot replaced under fault (generation %d -> %d, %d -> %d shards)",
			genBefore, snap.Gen, snapBefore.Shards, snap.Shards)
	}
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("%s under fault: status %d", target, status)
		}
		if !bytes.Equal(body, baseline[target]) {
			t.Errorf("%s under fault diverges from last-good baseline", target)
		}
	}

	// Heal and poll until the half-open probe lands: fresh generation,
	// closed breaker, ready again, same bodies (the healed corpus is
	// byte-identical to the original).
	if err := chaos.Heal(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().Gen == genBefore || srv.dir.brk.currentState() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never converged after heal (gen %d, breaker %v)",
				srv.Snapshot().Gen, srv.dir.brk.currentState())
		}
		_, _ = srv.MaybeReload()
		time.Sleep(time.Millisecond)
	}
	if status, _ := get(t, srv, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after heal: status %d", status)
	}
	for _, target := range chaosTargets {
		status, body := get(t, srv, target)
		if status != http.StatusOK {
			t.Fatalf("post-heal %s: status %d", target, status)
		}
		if !bytes.Equal(body, baseline[target]) {
			t.Errorf("post-heal %s diverges from baseline", target)
		}
	}
}

// TestShardTornReloadBreaker tears one shard file in place while the
// manifest keeps naming the healthy bytes — a shard writer killed
// mid-rewrite. The incremental reload holds a healthy in-memory copy of
// that very shard, so this also pins the reuse rule: adoption requires
// the on-disk size to match the manifest entry, and a torn file must
// fail the reload rather than be papered over by the previous
// generation's memory.
func TestShardTornReloadBreaker(t *testing.T) {
	leakcheck.Check(t)
	srv, chaos, _ := newShardFaultServer(t, false)
	driveFault(t, srv, chaos, func() error {
		name, frac, err := chaos.TearShard()
		if err == nil {
			t.Logf("tore %s at %.2f", name, frac)
		}
		return err
	})
	if n := chaos.Counts()[faultinject.KindTornShard]; n != 1 {
		t.Errorf("torn-shard count %d, want 1", n)
	}
}

// TestShardStaleManifestReadyz deletes one shard the manifest still
// lists — a manifest landing without its shard. The reload must fail on
// the missing file (the monolithic files sitting right there are repair
// backing, never a load source), and /readyz must reflect the open
// breaker.
func TestShardStaleManifestReadyz(t *testing.T) {
	leakcheck.Check(t)
	srv, chaos, _ := newShardFaultServer(t, false)
	driveFault(t, srv, chaos, func() error {
		name, err := chaos.StaleManifest()
		if err == nil {
			t.Logf("deleted %s", name)
		}
		return err
	})
	if n := chaos.Counts()[faultinject.KindStaleManifest]; n != 1 {
		t.Errorf("stale-manifest count %d, want 1", n)
	}
}

// TestManifestRemovedKeepsLastGood deletes MANIFEST.supremm under a
// running daemon, strict and self-healing. The manifest is the root of
// the directory, so the poll must fail, feed the breaker and leave the
// last-good generation serving with its shards and its coverage; the
// monolithic files beside it are repair backing, not a second way in.
// (While they were, this poll succeeded: the daemon silently swapped to
// a generation read from jobs.supremm, with nothing to scrub.)
func TestManifestRemovedKeepsLastGood(t *testing.T) {
	leakcheck.Check(t)
	for _, selfHeal := range []bool{false, true} {
		srv, chaos, _ := newShardFaultServer(t, selfHeal)
		driveFault(t, srv, chaos, func() error {
			return os.Remove(filepath.Join(srv.cfg.DataDir, store.ManifestFile))
		})
		if n := srv.met.reloadErrors.Load(); n == 0 {
			t.Errorf("self-heal %v: no reload error counted for the missing manifest", selfHeal)
		}
	}
}

// TestLoadNeedsManifest: a directory holding only the monolithic files
// is not a data directory. The daemon (either policy) and the CLI loader
// refuse it with an error that names the missing file and what writes
// it.
func TestLoadNeedsManifest(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(2, 10), fixtureSeries(4), nil)
	if err := os.Remove(filepath.Join(dir, store.ManifestFile)); err != nil {
		t.Fatal(err)
	}
	for day := int64(0); day < 2; day++ {
		if err := os.Remove(filepath.Join(dir, store.ShardFileName(day))); err != nil {
			t.Fatal(err)
		}
	}
	loads := map[string]func() error{
		"New":           func() error { _, err := New(Config{DataDir: dir}); return err },
		"New self-heal": func() error { _, err := New(Config{DataDir: dir, SelfHeal: true}); return err },
		"LoadRealm":     func() error { _, err := LoadRealm(dir); return err },
	}
	for name, load := range loads {
		err := load()
		if err == nil {
			t.Errorf("%s loaded a directory that holds only jobs.supremm and jobs.jsonl", name)
			continue
		}
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), store.ManifestFile) ||
			!strings.Contains(err.Error(), "cmd/ingest") {
			t.Errorf("%s: error %q, want fs.ErrNotExist naming %s and cmd/ingest", name, err, store.ManifestFile)
		}
	}
}
