package faultinject

import (
	"path/filepath"
	"reflect"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/sim"
)

// TestInjectEveryKindIntoSimArchive injects every fault kind into a
// simulator raw archive, whose last day file holds only two records, so
// a kind whose usual target is too short must move to a file that is
// long enough. A lenient ingest of the result must agree at one and
// four workers, quarantine exactly the files the manifest expects, and
// leave every job on untouched hosts as the clean run has it. (The
// clean archive already drops out-of-order job marks, so the other
// quality totals are not compared.)
func TestInjectEveryKindIntoSimArchive(t *testing.T) {
	cfg := sim.DefaultConfig(cluster.RangerConfig().Scaled(32), 5)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.RawDir = filepath.Join(t.TempDir(), "raw")
	run, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty := t.TempDir()
	m, err := Inject(cfg.RawDir, dirty, Spec{Seed: 1, HostFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(map[Kind]bool)
	for _, f := range m.Faults {
		ran[f.Kind] = true
	}
	for _, k := range AllKinds() {
		if !ran[k] {
			t.Errorf("kind %s never ran: %+v", k, m.Faults)
		}
	}

	lenient := func(dir string, workers int) *ingest.RawResult {
		t.Helper()
		res, err := ingest.IngestRawOpts(dir, run.Acct, ingest.Options{Policy: ingest.Lenient, Workers: workers})
		if err != nil {
			t.Fatalf("lenient ingest of %s at %d workers: %v", dir, workers, err)
		}
		return res
	}
	clean, one, four := lenient(cfg.RawDir, 1), lenient(dirty, 1), lenient(dirty, 4)
	if one.Store.Len() != four.Store.Len() || !reflect.DeepEqual(one.Series, four.Series) ||
		one.Unattributed != four.Unattributed || !reflect.DeepEqual(one.Quality, four.Quality) {
		t.Fatal("one and four workers disagree")
	}
	for i := 0; i < one.Store.Len(); i++ {
		if one.Store.Record(i) != four.Store.Record(i) {
			t.Fatalf("record %d: one and four workers disagree", i)
		}
	}
	if got := one.Quality.FilesQuarantined; got != m.Expect.FilesQuarantined {
		t.Fatalf("quarantined %d files, manifest expects %d: %+v", got, m.Expect.FilesQuarantined, m.Faults)
	}

	cleanRecs := make(map[int64]int, clean.Store.Len())
	for i := 0; i < clean.Store.Len(); i++ {
		cleanRecs[clean.Store.Record(i).JobID] = i
	}
	untouched := 0
	for i := 0; i < one.Store.Len(); i++ {
		rec := one.Store.Record(i)
		touched := false
		for _, a := range run.Acct {
			if a.JobID != rec.JobID {
				continue
			}
			for _, h := range a.NodeList {
				touched = touched || m.Corrupted(h)
			}
		}
		if touched {
			continue
		}
		untouched++
		if want := clean.Store.Record(cleanRecs[rec.JobID]); rec != want {
			t.Errorf("job %d on untouched hosts differs:\nclean %+v\ndirty %+v", rec.JobID, want, rec)
		}
	}
	if untouched == 0 {
		t.Fatal("every job touches a corrupted host; the check is vacuous")
	}
}
