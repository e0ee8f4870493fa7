package faultinject

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	data := []byte("0123456789")
	if err := TornWrite(path, data, 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234" {
		t.Fatalf("torn content %q, want first half", got)
	}
	// frac >= 1 still tears: a "torn" write must never equal the full
	// file, or the fault disappears.
	if err := TornWrite(path, data, 1.5); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if len(got) >= len(data) {
		t.Fatalf("frac>=1 produced a whole file (%d bytes)", len(got))
	}
}

func TestSlowOpener(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.bin")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	delays := 0
	open := SlowOpener(
		func(p string) (io.ReadCloser, error) { return os.Open(p) },
		func(p string) bool { return strings.HasSuffix(p, ".bin") },
		func() { delays++ },
	)
	rc, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("slow read content %q", got)
	}
	if delays == 0 {
		t.Error("delay never invoked on a matching path")
	}

	// Non-matching paths bypass the delay wrapper entirely.
	other := filepath.Join(dir, "fast.txt")
	if err := os.WriteFile(other, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := delays
	rc, err = open(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(rc); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if delays != before {
		t.Error("delay invoked on a non-matching path")
	}
}

// TestServeChaosTearHeal: tearing is deterministic per seed, healing
// restores byte-identical files atomically, and counts accumulate.
func TestServeChaosTearHeal(t *testing.T) {
	mkdir := func() (string, map[string][]byte) {
		dir := t.TempDir()
		good := map[string][]byte{
			manifestFile: bytes.Repeat([]byte("MANIFEST"), 64),
			"jobs.jsonl": []byte("{\"job\":1}\n"),
		}
		for name, b := range good {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir, good
	}

	dir1, good := mkdir()
	dir2, _ := mkdir()
	c1 := NewServeChaos(7, dir1, good)
	c2 := NewServeChaos(7, dir2, good)
	f1, err := c1.TearSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := c2.TearSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("same seed tore different fractions: %v vs %v", f1, f2)
	}
	torn, err := os.ReadFile(filepath.Join(dir1, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(good[manifestFile]) {
		t.Fatal("tear left a whole manifest")
	}

	if err := c1.Storm(2); err != nil {
		t.Fatal(err)
	}
	if err := c1.Heal(); err != nil {
		t.Fatal(err)
	}
	for name, want := range good {
		got, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("heal left %s diverged", name)
		}
	}
	// Heal's temp files must not survive.
	entries, err := os.ReadDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".heal") {
			t.Errorf("leaked heal temp %s", e.Name())
		}
	}
	counts := c1.Counts()
	if counts[KindTornSnapshot] != 1 {
		t.Errorf("torn count %d, want 1", counts[KindTornSnapshot])
	}
	if counts[KindReloadStorm] != 4 { // 2 rewrites x 2 files
		t.Errorf("storm count %d, want 4", counts[KindReloadStorm])
	}
}

func TestServeKinds(t *testing.T) {
	kinds := ServeKinds()
	if len(kinds) != 7 {
		t.Fatalf("ServeKinds() = %v", kinds)
	}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	for _, k := range []Kind{KindTornSnapshot, KindSlowRead, KindReloadStorm, KindSlowClient,
		KindTornShard, KindStaleManifest, KindBitRot} {
		if !seen[k] {
			t.Errorf("missing kind %s", k)
		}
	}
}
