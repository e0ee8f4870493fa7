package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/sched"
	"supremm/internal/sim"
	"supremm/internal/store"
)

// update regenerates the committed golden responses:
//
//	go test ./internal/serve -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenSeed pins the end-to-end corpus. Changing it (or anything in
// the simulate→ingest chain) is a deliberate act recorded by the
// golden-file diff.
const goldenSeed = 7

// goldenTargets are the pinned API requests. Each response must be
// byte-stable for the pinned seed, run after run, machine after
// machine.
var goldenTargets = []string{
	"/api/v1/health",
	"/api/v1/aggregate?metric=cpu_idle",
	"/api/v1/aggregate?metric=cpu_flops&app=namd",
	"/api/v1/aggregate?metric=mem_used&minsamples=2",
	"/api/v1/distribution?metric=mem_used&bins=8",
	"/api/v1/query?group=app&metrics=cpu_idle,cpu_flops&limit=5",
	"/api/v1/query?group=science&normalize=true",
	"/api/v1/profiles/users?n=3",
	"/api/v1/profiles/apps?apps=namd,amber",
	"/api/v1/efficiency?n=3",
	"/api/v1/trends",
	"/api/v1/workload",
	"/api/v1/quality",
	"/api/v1/report?suite=user",
	"/api/v1/report?suite=developer",
	"/api/v1/report?suite=support",
	"/api/v1/report?suite=admin",
	"/api/v1/report?suite=manager",
	"/api/v1/report?suite=funding",
}

// simGoldenRaw simulates the golden ranger into raw TACC_Stats
// archives under root and round-trips the accounting log through its
// wire format, exactly as cmd/ingest reads it.
func simGoldenRaw(t testing.TB, root string) (string, []sched.AcctRecord) {
	t.Helper()
	rawDir := filepath.Join(root, "raw")
	cfg := sim.DefaultConfig(cluster.RangerConfig().Scaled(32), goldenSeed)
	cfg.DurationMin = 4 * 24 * 60
	cfg.RawDir = rawDir
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	acctPath := filepath.Join(root, "accounting.log")
	af, err := os.Create(acctPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.WriteAcct(af, res.Acct); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(acctPath)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := sched.ReadAcct(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	return rawDir, acct
}

// writeGoldenDataDir ingests the raw archives and lands the data
// directory the way cmd/ingest does (writeDataDir).
func writeGoldenDataDir(t testing.TB, rawDir string, acct []sched.AcctRecord, dataDir string) {
	t.Helper()
	ing, err := ingest.IngestRawOpts(rawDir, acct, ingest.Options{Policy: ingest.Lenient, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	writeDataDir(t, dataDir, ing.Store, ing.Series, &ing.Quality)
}

// buildGoldenData runs the full pipeline in-process: simulate a small
// ranger with raw TACC_Stats archives, round-trip the accounting log
// through its file format, ingest the archives, and write the data
// directory the daemon loads — the same byte path production takes.
func buildGoldenData(t testing.TB, root string) string {
	t.Helper()
	rawDir, acct := simGoldenRaw(t, root)
	dataDir := filepath.Join(root, "data")
	writeGoldenDataDir(t, rawDir, acct, dataDir)
	return dataDir
}

func writeSeriesFile(t testing.TB, path string, series []store.SystemSample) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSeries(f, series); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenFileName maps an API target to its committed file.
func goldenFileName(target string) string {
	name := strings.TrimPrefix(target, "/api/v1/")
	r := strings.NewReplacer("/", "_", "?", ".", "&", ".", "=", "-", ",", "+")
	return r.Replace(name) + ".golden"
}

func fetchAll(t testing.TB, srv *Server) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(goldenTargets))
	for _, target := range goldenTargets {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		out[target] = rec.Body.Bytes()
	}
	return out
}

// stripHealth re-marshals a health body with the named keys removed,
// for comparisons across servers that legitimately differ in them
// (generation) while every data-bearing field must still match.
func stripHealth(t testing.TB, body []byte, drop ...string) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("health body not JSON: %v", err)
	}
	for _, k := range drop {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenEndToEnd pins the full pipeline: simulate → raw archives →
// ingest → supremmd responses, compared byte-for-byte against the
// committed golden files, and re-run from scratch to prove the chain
// is bit-stable.
func TestGoldenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	dataDir := buildGoldenData(t, t.TempDir())
	srv := newTestServer(t, dataDir)
	got := fetchAll(t, srv)

	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, target := range goldenTargets {
			path := filepath.Join("testdata", "golden", goldenFileName(target))
			if err := os.WriteFile(path, got[target], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files", len(goldenTargets))
		return
	}

	for _, target := range goldenTargets {
		path := filepath.Join("testdata", "golden", goldenFileName(target))
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", target, err)
		}
		if !bytes.Equal(got[target], want) {
			t.Errorf("%s: response differs from %s (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
				target, path, clip(got[target]), clip(want))
		}
	}

	// Second full pipeline run from scratch: every byte must repeat.
	dataDir2 := buildGoldenData(t, t.TempDir())
	srv2 := newTestServer(t, dataDir2)
	again := fetchAll(t, srv2)
	for _, target := range goldenTargets {
		if !bytes.Equal(got[target], again[target]) {
			t.Errorf("%s: two pipeline runs disagree — the chain is not deterministic", target)
		}
	}
}

// maxRawDay scans the raw tree (rawDir/<host>/<day>.raw) for the
// latest day any archive covers.
func maxRawDay(t testing.TB, rawDir string) int64 {
	t.Helper()
	hosts, err := os.ReadDir(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	maxDay := int64(-1 << 62)
	for _, h := range hosts {
		if !h.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(rawDir, h.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			day, err := strconv.ParseInt(strings.TrimSuffix(f.Name(), ".raw"), 10, 64)
			if err != nil {
				t.Fatalf("unexpected raw file %s/%s: %v", h.Name(), f.Name(), err)
			}
			if day > maxDay {
				maxDay = day
			}
		}
	}
	return maxDay
}

// stageRawBefore copies the raw tree, keeping only archives for days
// strictly before cutoff — the corpus as it stood before the last
// day's collection landed.
func stageRawBefore(t testing.TB, rawDir string, cutoff int64) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "raw")
	hosts, err := os.ReadDir(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if !h.IsDir() {
			continue
		}
		if err := os.MkdirAll(filepath.Join(dst, h.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(filepath.Join(rawDir, h.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			day, err := strconv.ParseInt(strings.TrimSuffix(f.Name(), ".raw"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if day >= cutoff {
				continue
			}
			b, err := os.ReadFile(filepath.Join(rawDir, h.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, h.Name(), f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestGoldenIncrementalReload pins the operational loop the shard
// store exists for: ingest a partial corpus (the raw tree minus its
// last day), serve it, then land the full ingest in the same directory
// and poll. The daemon must pick the batch up incrementally — adopting
// the byte-identical history shards from the previous generation — and
// afterwards answer every pinned endpoint with exactly the committed
// golden bytes, indistinguishable from a cold full load.
func TestGoldenIncrementalReload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	root := t.TempDir()
	rawDir, acct := simGoldenRaw(t, root)
	partialRaw := stageRawBefore(t, rawDir, maxRawDay(t, rawDir))

	dataDir := filepath.Join(root, "data")
	writeGoldenDataDir(t, partialRaw, acct, dataDir)
	srv := newTestServer(t, dataDir)
	snapA := srv.Snapshot()
	if snapA.Shards < 2 {
		t.Fatalf("partial corpus produced %d shards; need >= 2 for a reuse check", snapA.Shards)
	}

	// The full batch lands in place; the poll must catch it.
	writeGoldenDataDir(t, rawDir, acct, dataDir)
	reloaded, err := srv.MaybeReload()
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded {
		t.Fatal("MaybeReload missed the full batch")
	}
	snapB := srv.Snapshot()
	if snapB.Gen <= snapA.Gen {
		t.Fatalf("generation did not advance (%d -> %d)", snapA.Gen, snapB.Gen)
	}
	if snapB.Shards < snapA.Shards {
		t.Fatalf("full corpus has %d shards, fewer than partial's %d", snapB.Shards, snapA.Shards)
	}
	// History days re-ingest to byte-identical shards, so the reload
	// must have adopted them rather than re-decoded. Jobs straddling
	// the cutoff can shift the last partial day's shard, so the floor
	// is "some reuse", not "all but one".
	if snapB.ShardsReused < 1 {
		t.Fatalf("incremental reload reused %d shards, want >= 1 (%d total)",
			snapB.ShardsReused, snapB.Shards)
	}
	t.Logf("incremental reload: %d -> %d shards, %d reused",
		snapA.Shards, snapB.Shards, snapB.ShardsReused)

	// The incrementally-reloaded daemon is indistinguishable from a
	// cold load of the full corpus — and from the committed goldens.
	got := fetchAll(t, srv)
	cold := fetchAll(t, newTestServer(t, dataDir))
	for _, target := range goldenTargets {
		gotBody, coldBody := got[target], cold[target]
		if target == "/api/v1/health" {
			// Generation is the one legitimate difference: the live
			// daemon is on gen 2, the cold reference on gen 1.
			gotBody = stripHealth(t, gotBody, "generation")
			coldBody = stripHealth(t, coldBody, "generation")
		}
		if !bytes.Equal(gotBody, coldBody) {
			t.Errorf("%s: incrementally-reloaded response differs from cold full load\ngot:\n%s\ncold:\n%s",
				target, clip(gotBody), clip(coldBody))
		}
		if *update || target == "/api/v1/health" {
			continue // goldens are written by TestGoldenEndToEnd at gen 1
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", goldenFileName(target)))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", target, err)
		}
		if !bytes.Equal(got[target], want) {
			t.Errorf("%s: post-reload response differs from committed golden", target)
		}
	}
}

func clip(b []byte) string {
	const max = 2000
	if len(b) > max {
		return string(b[:max]) + fmt.Sprintf("... (%d more bytes)", len(b)-max)
	}
	return string(b)
}
