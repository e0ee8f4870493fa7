package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/store"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// ---------------------------------------------------------------------
// Legacy reference implementation: the pre-streaming ingest path that
// materializes every record of every file and reduces intervals through
// nested map lookups. Kept here verbatim as the oracle the streaming
// and parallel paths must match bit for bit.
// ---------------------------------------------------------------------

type legacySample struct {
	rec     *taccstats.Record
	schemas map[string]procfs.Schema
}

func (h *legacySample) get(typ, dev, key string) (uint64, bool) {
	return h.rec.Get(h.schemas, typ, dev, key)
}

func legacySumDevices(prev, cur *legacySample, typ, key string) float64 {
	devs, ok := cur.rec.Data[typ]
	if !ok {
		return 0
	}
	var total float64
	for dev := range devs {
		c, _ := cur.get(typ, dev, key)
		p, _ := prev.get(typ, dev, key)
		total += eventDelta(p, c)
	}
	return total
}

func legacySumGauge(cur *legacySample, typ, key string) float64 {
	devs, ok := cur.rec.Data[typ]
	if !ok {
		return 0
	}
	var total float64
	for dev := range devs {
		v, _ := cur.get(typ, dev, key)
		total += float64(v)
	}
	return total
}

func legacyComputeInterval(prev, cur *legacySample, dt float64) Interval {
	user := legacySumDevices(prev, cur, procfs.TypeCPU, "user") + legacySumDevices(prev, cur, procfs.TypeCPU, "nice")
	sys := legacySumDevices(prev, cur, procfs.TypeCPU, "system") +
		legacySumDevices(prev, cur, procfs.TypeCPU, "irq") + legacySumDevices(prev, cur, procfs.TypeCPU, "softirq")
	idle := legacySumDevices(prev, cur, procfs.TypeCPU, "idle")
	iowait := legacySumDevices(prev, cur, procfs.TypeCPU, "iowait")
	totalCS := user + sys + idle + iowait

	iv := Interval{DtSec: dt}
	if totalCS > 0 {
		iv.UserFrac = user / totalCS
		iv.SysFrac = sys / totalCS
		iv.IdleFrac = (idle + iowait) / totalCS
	}
	iv.MemUsedKB = legacySumGauge(cur, procfs.TypeMem, "MemUsed")
	iv.Flops = legacySumDevices(prev, cur, procfs.TypeAMDPMC, "FLOPS") +
		legacySumDevices(prev, cur, procfs.TypeIntelPMC, "FLOPS")
	if devs, ok := cur.rec.Data[procfs.TypeLlite]; ok {
		for dev := range devs {
			c, _ := cur.get(procfs.TypeLlite, dev, "write_bytes")
			p, _ := prev.get(procfs.TypeLlite, dev, "write_bytes")
			d := eventDelta(p, c)
			switch dev {
			case "scratch":
				iv.ScratchB += d
			case "work":
				iv.WorkB += d
			}
			cr, _ := cur.get(procfs.TypeLlite, dev, "read_bytes")
			pr, _ := prev.get(procfs.TypeLlite, dev, "read_bytes")
			iv.ReadB += eventDelta(pr, cr)
		}
	}
	iv.IBTxB = legacySumDevices(prev, cur, procfs.TypeIB, "tx_bytes")
	iv.IBRxB = legacySumDevices(prev, cur, procfs.TypeIB, "rx_bytes")
	iv.LnetTxB = legacySumDevices(prev, cur, procfs.TypeLnet, "tx_bytes")
	return iv
}

// legacyFold attributes one interval to the job occupying the host at
// its midpoint and folds it straight into the shared accumulator and
// system buckets, host after host — the order the production merge must
// reproduce. Returns 1 if the interval matched no job window (it still
// counts in the system series: idle nodes are part of the cluster view).
func legacyFold(acc *Accumulator, buckets map[int64]*sysBucket,
	windows []jobWindow, identities map[int64]store.JobRecord,
	prevTime, curTime int64, iv Interval) int {

	jobID := findJob(windows, prevTime+int64(iv.DtSec/2))
	if jobID != 0 {
		if !acc.Started(jobID) {
			acc.StartJob(identities[jobID])
		}
		_ = acc.AddInterval(jobID, iv) // only fails for an unknown job, started above
	}
	b := buckets[curTime]
	if b == nil {
		b = &sysBucket{}
		buckets[curTime] = b
	}
	b.fold(iv, jobID != 0)
	if jobID == 0 {
		return 1
	}
	return 0
}

func legacyIngestRaw(dir string, acct []sched.AcctRecord) (*RawResult, error) {
	windowsByHost, identities := indexAccounting(acct)
	hostDirs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: read raw dir: %w", err)
	}
	acc := NewAccumulator()
	buckets := make(map[int64]*sysBucket)
	unattributed := 0
	for _, hd := range sortedDirs(hostDirs) {
		host := hd.Name()
		files, err := os.ReadDir(filepath.Join(dir, host))
		if err != nil {
			return nil, err
		}
		var prev *legacySample
		for _, fe := range sortedRawFiles(files) {
			fh, err := os.Open(filepath.Join(dir, host, fe.Name()))
			if err != nil {
				return nil, err
			}
			var recs []taccstats.Record
			f, err := taccstats.ParseStream(fh, func(rec *taccstats.Record) error {
				recs = append(recs, rec.Materialize())
				return nil
			})
			fh.Close()
			if err != nil {
				return nil, err
			}
			for i := range recs {
				cur := &legacySample{rec: &recs[i], schemas: f.Schemas}
				if prev != nil {
					dt := float64(cur.rec.Time - prev.rec.Time)
					if dt > 0 {
						iv := legacyComputeInterval(prev, cur, dt)
						unattributed += legacyFold(acc, buckets, windowsByHost[host], identities,
							prev.rec.Time, cur.rec.Time, iv)
					}
				}
				prev = cur
			}
		}
	}
	st := store.New()
	ids := make([]int64, 0, len(identities))
	for id := range identities {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !acc.Started(id) {
			acc.StartJob(identities[id])
		}
		rec, err := acc.FinishJob(id)
		if err != nil {
			return nil, err
		}
		st.Add(rec)
	}
	return &RawResult{Store: st, Series: flattenBuckets(buckets), Unattributed: unattributed}, nil
}

// ---------------------------------------------------------------------
// Equivalence fixture: a simulated multi-host raw tree with per-host
// rate variation, two day files per host (so intervals cross file
// boundaries), a duplicate timestamp across one boundary (zero-dt), a
// PMC reset, and an idle tail no accounting window covers.
// ---------------------------------------------------------------------

func writeEquivalenceTree(t *testing.T, dir string) []sched.AcctRecord {
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

func requireIdenticalResults(t *testing.T, label string, want, got *RawResult) {
	t.Helper()
	if got.Store.Len() != want.Store.Len() {
		t.Fatalf("%s: %d vs %d records", label, got.Store.Len(), want.Store.Len())
	}
	for i := 0; i < want.Store.Len(); i++ {
		if got.Store.Record(i) != want.Store.Record(i) {
			t.Fatalf("%s: record %d differs:\n want %+v\n got  %+v",
				label, i, want.Store.Record(i), got.Store.Record(i))
		}
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: series %d vs %d", label, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		if got.Series[i] != want.Series[i] {
			t.Fatalf("%s: series %d differs:\n want %+v\n got  %+v",
				label, i, want.Series[i], got.Series[i])
		}
	}
	if got.Unattributed != want.Unattributed {
		t.Fatalf("%s: unattributed %d vs %d", label, got.Unattributed, want.Unattributed)
	}
}

// TestIngestRawStreamingEquivalence runs the same simulated multi-host
// tree through the legacy materializing path and through IngestRawOpts
// at pool sizes 1, 2 and 7, and requires bit-identical RawResults.
func TestIngestRawStreamingEquivalence(t *testing.T) {
	dir := t.TempDir()
	acct := writeEquivalenceTree(t, dir)

	legacy, err := legacyIngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Unattributed == 0 {
		t.Fatal("fixture must produce unattributed intervals")
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := IngestRawParallel(dir, acct, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdenticalResults(t, fmt.Sprintf("workers=%d", workers), legacy, got)
	}
}

// TestSysBucketDtConsistency is the regression test for the historical
// fold/merge divergence: fold used to overwrite the bucket dt
// unconditionally while merge guarded on positive dt. Both must keep the
// last positive dt so a zero-dt interval cannot wipe the bucket's rate
// denominator.
func TestSysBucketDtConsistency(t *testing.T) {
	b := &sysBucket{}
	b.fold(Interval{DtSec: 600, Flops: 1}, true)
	b.fold(Interval{DtSec: 0, Flops: 1}, true)
	if b.dt != 600 {
		t.Errorf("fold: dt = %v after zero-dt interval, want 600", b.dt)
	}

	m := &sysBucket{}
	m.merge(&sysBucket{dt: 600, hosts: 1})
	m.merge(&sysBucket{dt: 0, hosts: 1})
	if m.dt != 600 {
		t.Errorf("merge: dt = %v after zero-dt bucket, want 600", m.dt)
	}

	// Rates must use the surviving dt.
	buckets := map[int64]*sysBucket{100: b}
	s := flattenBuckets(buckets)
	if s[0].TotalTFlops == 0 {
		t.Error("zero-dt interval wiped the rate denominator")
	}
}
