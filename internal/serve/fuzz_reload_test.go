package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/store"
)

// fuzzReloadValidBinary renders the fixture store to its columnar
// binary form — the codec of a shard file — once; truncations of it
// seed the fuzzer with inputs that pass the magic check and fail deeper
// in the decoder.
func fuzzReloadValidBinary(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := fixtureStore(12).SaveBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzReloadDir lands the directory every fuzz iteration starts from:
// six jobs ending on epoch day 0, so the manifest names one shard.
func fuzzReloadDir(tb testing.TB) string {
	dir := tb.TempDir()
	writeDataDir(tb, dir, fixtureStore(6), fixtureSeries(3), nil)
	return dir
}

// fuzzReloadSeeds are the committed-corpus inputs: truncations of a
// valid snapshot (torn writes at several depths), plain garbage, a
// valid file, an empty file — and the fuzz directory's own manifest and
// shard, whole (the inputs that reload) and torn.
func fuzzReloadSeeds(tb testing.TB) [][]byte {
	valid := fuzzReloadValidBinary(tb)
	seeds := [][]byte{
		{},
		[]byte("not a snapshot at all"),
		[]byte("SUPRMMC1"), // magic alone, nothing behind it
		valid[:len(valid)/4],
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		valid,
	}
	dir := fuzzReloadDir(tb)
	for _, name := range []string{store.ManifestFile, store.ShardFileName(0)} {
		own, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, own, own[:len(own)/2])
	}
	return seeds
}

// FuzzReloadCorrupt feeds arbitrary bytes through the reload path as
// each kind of file a load reads — the manifest it starts from and a
// shard file the manifest names — under the strict and the self-healing
// policy, and asserts the contract they share: a failed load must never
// change the served snapshot (same pointer, same generation) and the
// daemon keeps answering, while a load that succeeds (a byte-for-byte
// valid file, or a shard repaired from its backing) publishes exactly
// the next generation. This is the breaker/reload analogue of the
// codec-level FuzzColumnsDecode and FuzzManifestDecode: the property
// under test is the daemon's behavior, not the decoder's.
func FuzzReloadCorrupt(f *testing.F) {
	for _, seed := range fuzzReloadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, selfHeal := range []bool{false, true} {
			for _, victim := range []string{store.ManifestFile, store.ShardFileName(0)} {
				dir := fuzzReloadDir(t)
				srv, err := New(Config{DataDir: dir, SelfHeal: selfHeal})
				if err != nil {
					t.Fatal(err)
				}
				before := srv.Snapshot()
				if err := os.WriteFile(filepath.Join(dir, victim), data, 0o644); err != nil {
					t.Fatal(err)
				}
				_, rerr := srv.Reload()
				after := srv.Snapshot()
				if rerr != nil {
					if after != before {
						t.Fatalf("%s, self-heal %v: failed reload changed the served snapshot (gen %d -> %d)",
							victim, selfHeal, before.Gen, after.Gen)
					}
					if status, body := get(t, srv, "/api/v1/health"); status != http.StatusOK {
						t.Fatalf("health after failed reload: %d (%s)", status, body)
					}
					if status, _ := get(t, srv, "/healthz"); status != http.StatusOK {
						t.Fatalf("healthz after failed reload: %d", status)
					}
				} else if after.Gen != before.Gen+1 {
					t.Fatalf("%s, self-heal %v: successful reload: generation %d -> %d, want +1",
						victim, selfHeal, before.Gen, after.Gen)
				}
			}
		}
	})
}

// TestRegenReloadCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzReloadCorrupt when -update is set, mirroring the
// golden-file update flow. The corpus pins the torn-write shapes so
// `make fuzz-smoke` replays them even without new fuzzing.
func TestRegenReloadCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the reload fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReloadCorrupt")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzReloadSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
