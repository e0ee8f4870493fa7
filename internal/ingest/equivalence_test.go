package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/reference"
	"supremm/internal/sched"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// ---------------------------------------------------------------------
// Equivalence fixture: a simulated multi-host raw tree with per-host
// rate variation, two day files per host (so intervals cross file
// boundaries), a duplicate timestamp across one boundary (zero-dt), a
// PMC reset, and an idle tail no accounting window covers.
// ---------------------------------------------------------------------

func writeEquivalenceTree(t testing.TB, dir string) []sched.AcctRecord {
	t.Helper()
	hosts := []string{"c100-000.ranger", "c100-001.ranger", "c100-002.ranger"}
	for hi, host := range hosts {
		cc := cluster.RangerConfig()
		snap := procfs.NewNodeSnapshot(cc, host)
		snap.Time = 1000
		hostDir := filepath.Join(dir, host)
		if err := os.MkdirAll(hostDir, 0o755); err != nil {
			t.Fatal(err)
		}
		advance := func(w *taccstats.Writer, i int, mark string) {
			for c := 0; c < 16; c++ {
				dev := snap.Type(procfs.TypeCPU).Devices()[c]
				// Vary rates by host, sample and core so sums are not
				// trivially symmetric.
				snap.Add(procfs.TypeCPU, dev, "user", uint64(40000+1000*hi+100*i+c))
				snap.Add(procfs.TypeCPU, dev, "system", uint64(2000+10*c))
				snap.Add(procfs.TypeCPU, dev, "idle", uint64(10000+500*i))
				snap.Add(procfs.TypeCPU, dev, "iowait", uint64(100*hi))
				snap.Add(procfs.TypeAMDPMC, dev, "FLOPS", uint64(4e10+1e9*float64(hi*16+c)))
			}
			for s := 0; s < 4; s++ {
				dev := snap.Type(procfs.TypeMem).Devices()[s]
				snap.Set(procfs.TypeMem, dev, "MemUsed", uint64(2*1024*1024+uint64(100000*(hi+i+s))))
			}
			snap.Add(procfs.TypeLlite, "scratch", "write_bytes", uint64(500e6+1e6*float64(hi)))
			snap.Add(procfs.TypeLlite, "work", "write_bytes", uint64(50e6+1e5*float64(i)))
			snap.Add(procfs.TypeLlite, "scratch", "read_bytes", uint64(100e6))
			snap.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", uint64(1e9+1e7*float64(hi*10+i)))
			snap.Add(procfs.TypeIB, "mlx4_0.1", "rx_bytes", uint64(9e8))
			snap.Add(procfs.TypeLnet, "-", "tx_bytes", uint64(2e8))
			if err := w.WriteRecord(snap, mark); err != nil {
				t.Fatal(err)
			}
		}
		writeDay := func(day int, write func(w *taccstats.Writer)) {
			f, err := os.Create(filepath.Join(hostDir, fmt.Sprintf("%d.raw", day)))
			if err != nil {
				t.Fatal(err)
			}
			w := taccstats.NewWriter(f)
			if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
				t.Fatal(err)
			}
			write(w)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		writeDay(0, func(w *taccstats.Writer) {
			if err := w.WriteRecord(snap, "begin 7"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				snap.Time += 600
				advance(w, i, "")
			}
		})
		writeDay(1, func(w *taccstats.Writer) {
			// Rotate record at the same timestamp as day 0's last sample:
			// a zero-dt interval the reduction must skip.
			if err := w.WriteRecord(snap, "rotate"); err != nil {
				t.Fatal(err)
			}
			for i := 4; i < 6; i++ {
				snap.Time += 600
				advance(w, i, "")
			}
			snap.Time += 600
			advance(w, 6, "end 7")
			if hi == 0 {
				// PMC reset at a job boundary: counters move backwards.
				for c := 0; c < 16; c++ {
					dev := snap.Type(procfs.TypeAMDPMC).Devices()[c]
					vals := snap.Type(procfs.TypeAMDPMC).Values(dev)
					for k := range vals {
						vals[k] = 0
					}
				}
			}
			// Idle tail: two more samples after the job ends, attributed
			// to no window.
			snap.Time += 600
			advance(w, 7, "")
			snap.Time += 600
			advance(w, 8, "")
		})
	}
	end := int64(1000 + 7*600)
	return []sched.AcctRecord{{
		Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 7,
		Account: "Physics", Submit: 900, Start: 1000, End: end,
		Status: workload.Completed, Slots: 16 * len(hosts), NodeList: hosts,
	}}
}

// asReference is res in the reference's form: its job records in store
// order, its series, and its quality without the quarantine reasons.
func asReference(res *RawResult) *reference.IngestResult {
	q := res.Quality
	out := &reference.IngestResult{
		Series: res.Series, Unattributed: res.Unattributed,
		Quality: reference.IngestQuality{
			FilesScanned: q.FilesScanned, FilesQuarantined: q.FilesQuarantined,
			RecordsDropped: q.RecordsDropped, DuplicatesSkipped: q.DuplicatesSkipped,
			ResetsDetected: q.ResetsDetected, IntervalsClamped: q.IntervalsClamped,
			RetriesPerformed: q.RetriesPerformed, JobsNoData: q.JobsNoData,
		},
	}
	for i := 0; i < res.Store.Len(); i++ {
		out.Jobs = append(out.Jobs, res.Store.Record(i))
	}
	for _, f := range q.Quarantined {
		out.Quality.Quarantined = append(out.Quality.Quarantined, reference.HostFile{Host: f.Host, File: f.File})
	}
	return out
}

// requireReference holds an ingest's result to the reference's (or to
// another ingest's, through asReference), floats by their bits, naming
// the first part that differs.
func requireReference(t *testing.T, label string, want *reference.IngestResult, res *RawResult) {
	t.Helper()
	got := asReference(res)
	if reference.Same(got, want) {
		return
	}
	switch {
	case !reference.Same(got.Jobs, want.Jobs):
		for i := range want.Jobs {
			if i < len(got.Jobs) && !reference.Same(got.Jobs[i], want.Jobs[i]) {
				t.Fatalf("%s: job %d differs:\n reference %+v\n ingest    %+v", label, i, want.Jobs[i], got.Jobs[i])
			}
		}
		t.Fatalf("%s: %d jobs, the reference has %d", label, len(got.Jobs), len(want.Jobs))
	case !reference.Same(got.Series, want.Series):
		for i := range want.Series {
			if i < len(got.Series) && !reference.Same(got.Series[i], want.Series[i]) {
				t.Fatalf("%s: series sample %d differs:\n reference %+v\n ingest    %+v", label, i, want.Series[i], got.Series[i])
			}
		}
		t.Fatalf("%s: %d series samples, the reference has %d", label, len(got.Series), len(want.Series))
	}
	t.Fatalf("%s: unattributed %d, quality %+v; the reference's %d, %+v",
		label, got.Unattributed, got.Quality, want.Unattributed, want.Quality)
}

// TestIngestRawStreamingEquivalence runs the same simulated multi-host
// tree through IngestRawOpts at pool sizes 1, 2 and 7 and requires each
// result to equal reference.Ingest's bit for bit.
func TestIngestRawStreamingEquivalence(t *testing.T) {
	dir := t.TempDir()
	acct := writeEquivalenceTree(t, dir)

	want, err := reference.Ingest(os.DirFS(dir), acct, true)
	if err != nil {
		t.Fatal(err)
	}
	if want.Unattributed == 0 {
		t.Fatal("fixture must produce unattributed intervals")
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := IngestRawParallel(dir, acct, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireReference(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestSysBucketDtConsistency is the regression test for the historical
// fold divergence: fold used to overwrite the bucket dt unconditionally.
// It must keep the last positive dt so a zero-dt interval cannot wipe
// the bucket's rate denominator.
func TestSysBucketDtConsistency(t *testing.T) {
	b := &sysBucket{}
	b.fold(Interval{DtSec: 600, Flops: 1}, true)
	b.fold(Interval{DtSec: 0, Flops: 1}, true)
	if b.dt != 600 {
		t.Errorf("fold: dt = %v after zero-dt interval, want 600", b.dt)
	}

	// Rates must use the surviving dt.
	buckets := map[int64]*sysBucket{100: b}
	s := flattenBuckets(buckets)
	if s[0].TotalTFlops == 0 {
		t.Error("zero-dt interval wiped the rate denominator")
	}
}
