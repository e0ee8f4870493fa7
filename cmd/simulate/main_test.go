package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/report"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/store"
)

func TestRunWritesAllArtefacts(t *testing.T) {
	out := t.TempDir()
	if err := run("ranger", 8, 1, 3, out, false, "", ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"accounting.log", "events.log", "lariat.jsonl", "jobs.jsonl", "series.jsonl", store.ManifestFile} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("missing artefact %s: %v", name, err)
		}
	}
	// The artefacts parse.
	af, err := os.Open(filepath.Join(out, "accounting.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	acct, err := sched.ReadAcct(af)
	if err != nil {
		t.Fatal(err)
	}
	if len(acct) == 0 {
		t.Error("empty accounting")
	}
	jf, err := os.Open(filepath.Join(out, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	st, err := store.Load(jf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Error("empty store")
	}
}

// TestRunOutputIsADataDirectory: what simulate leaves behind (no -raw,
// no ingest) is the directory every reader reads. It loads through the
// loader xdmod and supremmd share and renders a report; every file
// landed through the atomic writer; and jobs.jsonl holds the shards'
// rows in the shards' order, so a self-healing daemon rebuilds a lost
// shard from it to the manifest's exact bytes.
func TestRunOutputIsADataDirectory(t *testing.T) {
	out := t.TempDir()
	if err := run("ranger", 8, 2, 3, out, false, "", ""); err != nil {
		t.Fatal(err)
	}
	realm, err := serve.LoadRealm(out)
	if err != nil {
		t.Fatalf("simulate output does not load: %v", err)
	}
	if realm.Cluster != "ranger" || realm.Store.Len() == 0 || len(realm.Series) == 0 {
		t.Fatalf("loaded cluster %q, %d jobs, %d samples", realm.Cluster, realm.Store.Len(), len(realm.Series))
	}
	var buf bytes.Buffer
	report.Fig7(&buf, realm)
	if buf.Len() == 0 {
		t.Error("system report over simulate output is empty")
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}

	ss, err := store.LoadShardSet(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumShards() < 2 {
		t.Fatalf("two simulated days produced %d shards, want >= 2", ss.NumShards())
	}
	victim := filepath.Join(out, store.ShardFileName(ss.ShardAt(1).ID()))
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{DataDir: out, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if cov := srv.Snapshot().Coverage; cov.Degraded || cov.RowsServed != realm.Store.Len() {
		t.Errorf("coverage after repair = %+v, want all %d rows", cov, realm.Store.Len())
	}
	if repaired, err := os.ReadFile(victim); err != nil || !bytes.Equal(repaired, pristine) {
		t.Errorf("shard rebuilt from jobs.jsonl differs from the one simulate wrote (err %v)", err)
	}
}

// TestRunOverIngestedDirDropsStaleFiles: simulate over a directory an
// ingest wrote, with an older batch's columnar jobs.supremm planted
// beside it. The simulated batch has no quality report, so the ingest's
// quality.json must go (else xdmod and supremmd report on files this
// batch never read), and the planted jobs.supremm must go (else shard
// repair rebuilds from the older batch instead of jobs.jsonl).
func TestRunOverIngestedDirDropsStaleFiles(t *testing.T) {
	out := t.TempDir()
	if err := run("ranger", 4, 1, 3, out, true, "", ""); err != nil {
		t.Fatal(err)
	}
	af, err := os.Open(filepath.Join(out, "accounting.log"))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := sched.ReadAcct(af)
	af.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ingest.IngestRawOpts(filepath.Join(out, "raw"), acct, ingest.Options{Policy: ingest.Lenient, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteDir(out, res.Store, res.Series, &res.Quality); err != nil {
		t.Fatal(err)
	}
	if err := store.AtomicWriteFile(out, store.JobsColumnarFile, func(f *os.File) error { return res.Store.SaveBinary(f) }); err != nil {
		t.Fatal(err)
	}

	if err := run("ranger", 4, 2, 7, out, false, "", ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{store.QualityFile, store.JobsColumnarFile} {
		if _, err := os.Stat(filepath.Join(out, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the simulate (stat err %v)", name, err)
		}
	}
	if _, src, err := store.LoadBackingStore(out, nil); err != nil || src != store.JobsFile {
		t.Errorf("repair backing = %q (err %v), want %s", src, err, store.JobsFile)
	}
	srv, err := serve.New(serve.Config{DataDir: out})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/quality", nil))
	var body struct {
		Available *bool `json:"available"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/quality: %d %q (err %v)", rec.Code, rec.Body.String(), err)
	}
	if body.Available == nil || *body.Available {
		t.Errorf("/api/v1/quality = %s, want available false", rec.Body.String())
	}
}

// TestRunStampedeLoadsWithStampedeShape: a stampede directory loads
// with Stampede's node shape and peak, scaled to the series' active-node
// peak — not Ranger's, which put every "% of peak" 2.35x too high.
func TestRunStampedeLoadsWithStampedeShape(t *testing.T) {
	out := t.TempDir()
	if err := run("stampede", 8, 2, 3, out, false, "", ""); err != nil {
		t.Fatal(err)
	}
	realm, err := serve.LoadRealm(out)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, s := range realm.Series {
		peak = max(peak, s.ActiveNodes)
	}
	want := cluster.StampedeConfig().Scaled(peak)
	if realm.Cluster != "stampede" || realm.CoresPerNode != want.CoresPerNode() ||
		realm.MemPerNodeGB != want.MemPerNodeGB || realm.PeakTFlops != want.PeakTFlops() {
		t.Errorf("loaded %s: %d cores, %v GB, %v TF per %d nodes; want %d cores, %v GB, %v TF",
			realm.Cluster, realm.CoresPerNode, realm.MemPerNodeGB, realm.PeakTFlops, peak,
			want.CoresPerNode(), want.MemPerNodeGB, want.PeakTFlops())
	}
}

func TestRunRawMode(t *testing.T) {
	out := t.TempDir()
	if err := run("lonestar4", 4, 1, 5, out, true, "", ""); err != nil {
		t.Fatal(err)
	}
	hosts, err := os.ReadDir(filepath.Join(out, "raw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 4 {
		t.Errorf("raw host dirs = %d", len(hosts))
	}
}

func TestRunSWFExportAndReplay(t *testing.T) {
	out := t.TempDir()
	swf := filepath.Join(out, "trace.swf")
	if err := run("ranger", 8, 2, 3, out, false, swf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(swf); err != nil {
		t.Fatal("swf trace not written")
	}
	// Replay the exported trace into a second run.
	out2 := t.TempDir()
	if err := run("ranger", 8, 2, 3, out2, false, "", swf); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(filepath.Join(out2, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	st, err := store.Load(jf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Error("replay produced no job records")
	}
}

func TestRunRejectsUnknownCluster(t *testing.T) {
	if err := run("bluewaters", 4, 1, 5, t.TempDir(), false, "", ""); err == nil {
		t.Error("unknown cluster should error")
	}
}
