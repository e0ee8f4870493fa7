package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/faultinject"
	"supremm/internal/leakcheck"
	"supremm/internal/store"
)

// raceTargets mix cached data endpoints, the uncached health/metrics
// pair, and a deliberately bad request so the error path runs hot too.
var raceTargets = []string{
	"/api/v1/health",
	"/api/v1/aggregate?metric=cpu_idle",
	"/api/v1/aggregate?metric=cpu_flops&app=namd",
	"/api/v1/query?group=app&limit=5",
	"/api/v1/profiles/users?n=2",
	"/api/v1/efficiency",
	"/api/v1/distribution?metric=mem_used&bins=6",
	"/api/v1/workload",
	"/metrics",
	"/api/v1/aggregate?metric=bogus", // 400 path
}

// TestConcurrentQueriesDuringReload hammers every endpoint from many
// goroutines while the data directory is rewritten and hot-reloaded
// underneath them. Run under -race; a torn store shows up either as a
// race report or as a response that mixes generations (job counts that
// match neither snapshot).
func TestConcurrentQueriesDuringReload(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	// Two alternating corpora with distinct, recognizable job counts.
	stA, seriesA := fixtureStore(40), fixtureSeries(12)
	stB, seriesB := fixtureStore(90), fixtureSeries(24)
	writeDataDir(t, dir, stA, seriesA, nil)
	srv := newTestServer(t, dir)

	const (
		queriers = 8
		reloads  = 25
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, queriers)

	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				target := raceTargets[(g+i)%len(raceTargets)]
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest:
				default:
					select {
					case errc <- fmt.Errorf("%s: status %d: %s", target, rec.Code, rec.Body.String()):
					default:
					}
					return
				}
				// Health reports whole-snapshot facts; a torn store
				// would surface as a count from neither corpus.
				if target == "/api/v1/health" && rec.Code == http.StatusOK {
					var h struct {
						Jobs int `json:"jobs"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
						select {
						case errc <- fmt.Errorf("health unmarshal: %v", err):
						default:
						}
						return
					}
					if h.Jobs != 40 && h.Jobs != 90 {
						select {
						case errc <- fmt.Errorf("torn snapshot: %d jobs", h.Jobs):
						default:
						}
						return
					}
				}
			}
		}(g)
	}

	for i := 0; i < reloads; i++ {
		if i%2 == 0 {
			writeDataDir(t, dir, stB, seriesB, nil)
		} else {
			writeDataDir(t, dir, stA, seriesA, nil)
		}
		if _, err := srv.Reload(); err != nil {
			t.Errorf("reload %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if gen := srv.Snapshot().Gen; gen != uint64(reloads)+1 {
		t.Errorf("final generation %d, want %d", gen, reloads+1)
	}
}

// TestConcurrentMaybeReload drives the polling entry point from many
// goroutines at once; the reloader's mutex must serialize the trips so
// exactly one generation bump happens per directory change.
func TestConcurrentMaybeReload(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(4), nil)
	srv := newTestServer(t, dir)

	writeDataDir(t, dir, fixtureStore(20), fixtureSeries(4), nil)
	fixed := time.Unix(1700000100, 0)
	if err := os.Chtimes(filepath.Join(dir, "jobs.jsonl"), fixed, fixed); err != nil {
		t.Fatal(err)
	}

	var reloaded atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := srv.MaybeReload()
			if err != nil {
				t.Error(err)
			}
			if ok {
				reloaded.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := reloaded.Load(); n != 1 {
		t.Errorf("%d goroutines reloaded, want exactly 1", n)
	}
	if gen := srv.Snapshot().Gen; gen != 2 {
		t.Errorf("generation %d after one change, want 2", gen)
	}
}

// TestScrubSerializedWithForcedReload races the two writers of the data
// directory over a silently bit-rotted shard: pollers, whose scrub tick
// quarantines what it finds, and forced Reloads, whose healing load
// quarantines and repairs what it cannot read. Both rename files and
// rewrite the custody log, so both run under the reloader's mutex;
// however they interleave, the day is quarantined once, repaired once,
// and the daemon ends on full coverage with the shard byte-identical.
func TestScrubSerializedWithForcedReload(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	writeDataDir(t, dir, dayStore(3, 40), fixtureSeries(30), healQuality)
	victim := store.ShardFileName(1)
	pristine, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.NewServeChaos(20261001, dir, map[string][]byte{victim: pristine})
	if err := chaos.RotFile(victim, 3); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := srv.MaybeReload(); err != nil {
				t.Error("poll:", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := srv.Reload(); err != nil {
				t.Error("forced reload:", err)
			}
		}()
	}
	wg.Wait()

	if cov := srv.Snapshot().Coverage; cov.Degraded || cov.Ratio != 1 {
		t.Errorf("coverage after the race = %+v, want full (repaired)", cov)
	}
	if got, err := os.ReadFile(filepath.Join(dir, victim)); err != nil || string(got) != string(pristine) {
		t.Errorf("shard after the race differs from pristine (err %v)", err)
	}
	events, err := store.LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Day != 1 || events[0].Action != store.ActionQuarantine ||
		events[1].Day != 1 || events[1].Action != store.ActionRepair {
		t.Errorf("quarantine log = %+v, want one quarantine then one repair of day 1", events)
	}
	if q, r := srv.met.quarantines.Load(), srv.met.repairs.Load(); q != 1 || r != 1 {
		t.Errorf("metrics quarantines=%d repairs=%d, want 1 and 1", q, r)
	}
}
