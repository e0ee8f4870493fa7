package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"supremm/internal/faultinject"
	"supremm/internal/sched"
	"supremm/internal/store"
	"supremm/internal/workload"
)

// degradeMaxInterval is the plausibility bound the degraded-mode tests
// run with: above the fixture's 600 s cadence and its cross-file gaps,
// below the injector's missing-day gap (4200 s) and clock step.
const degradeMaxInterval = 3600

// writeDegradeArchive writes a clean archive of nHosts hosts, each with
// three numerically named day files of six records at 600 s cadence
// (continuous across files), plus one accounting job per host spanning
// the whole archive. Counter rates are distinct per host so records are
// individually recognizable.
func writeDegradeArchive(t *testing.T, dir string, nHosts int) ([]string, []sched.AcctRecord) {
	t.Helper()
	const (
		filesPerHost = 3
		recsPerFile  = 6
		stepSec      = 600
	)
	hosts := make([]string, 0, nHosts)
	acct := make([]sched.AcctRecord, 0, nHosts)
	for h := 0; h < nHosts; h++ {
		host := fmt.Sprintf("d%03d", h)
		hosts = append(hosts, host)
		hostDir := filepath.Join(dir, host)
		if err := os.MkdirAll(hostDir, 0o755); err != nil {
			t.Fatal(err)
		}
		ts := int64(1000)
		var lastTS int64
		for f := 0; f < filesPerHost; f++ {
			var sb strings.Builder
			sb.WriteString("$tacc_stats 2.0\n$hostname " + host + "\n$arch amd64_opteron\n")
			sb.WriteString("!cpu user,E,U=cs system,E,U=cs idle,E,U=cs iowait,E,U=cs\n")
			sb.WriteString("!mem MemUsed,U=KB\n")
			for r := 0; r < recsPerFile; r++ {
				// Monotone per-host counter ramps: ~70% user, 30% idle.
				el := uint64(ts-1000) * 100
				fmt.Fprintf(&sb, "%d\n", ts)
				fmt.Fprintf(&sb, "cpu 0 %d %d %d %d\n", el*7/10+uint64(h), el/100, el*3/10, el/200)
				fmt.Fprintf(&sb, "cpu 1 %d %d %d %d\n", el*7/10, el/100+uint64(h), el*3/10, el/200)
				fmt.Fprintf(&sb, "mem 0 %d\n", 4*1024*1024+uint64(h)*1024)
				lastTS = ts
				ts += stepSec
			}
			name := fmt.Sprintf("%d.raw", f+1)
			if err := os.WriteFile(filepath.Join(hostDir, name), []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		acct = append(acct, sched.AcctRecord{
			Cluster: "ranger", Owner: "alice", JobName: "app", JobID: int64(100 + h),
			Account: "Physics", Submit: 900, Start: 1000, End: lastTS,
			Status: workload.Completed, Slots: 2, NodeList: []string{host},
		})
	}
	return hosts, acct
}

// recordByJob indexes a result's job records by ID.
func recordByJob(res *RawResult) map[int64]store.JobRecord {
	out := make(map[int64]store.JobRecord, res.Store.Len())
	for i := 0; i < res.Store.Len(); i++ {
		r := res.Store.Record(i)
		out[r.JobID] = r
	}
	return out
}

// requireSameResult asserts two results are identical in full,
// including the quality accounting.
func requireSameResult(t *testing.T, label string, a, b *RawResult) {
	t.Helper()
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("%s: %d vs %d records", label, a.Store.Len(), b.Store.Len())
	}
	for i := 0; i < a.Store.Len(); i++ {
		if a.Store.Record(i) != b.Store.Record(i) {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", label, i, a.Store.Record(i), b.Store.Record(i))
		}
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatalf("%s: system series differ", label)
	}
	if a.Unattributed != b.Unattributed {
		t.Fatalf("%s: unattributed %d vs %d", label, a.Unattributed, b.Unattributed)
	}
	if !reflect.DeepEqual(a.Quality, b.Quality) {
		t.Fatalf("%s: quality differs:\n%+v\n%+v", label, a.Quality, b.Quality)
	}
}

// TestDifferentialDegradation is the headline invariant: corrupting N%
// of hosts must leave every untouched job's record byte-identical to
// the clean run, the DataQuality totals must equal the injector's
// manifest, and four workers must agree with one on every quarantine
// decision.
func TestDifferentialDegradation(t *testing.T) {
	clean := t.TempDir()
	hosts, acct := writeDegradeArchive(t, clean, 20)

	lenient := Options{Policy: Lenient, MaxIntervalSec: degradeMaxInterval}
	cleanRes, err := IngestRawOpts(clean, acct, lenient)
	if err != nil {
		t.Fatal(err)
	}
	if q := cleanRes.Quality; q.Degraded() || q.DuplicatesSkipped != 0 || q.RetriesPerformed != 0 {
		t.Fatalf("clean archive reported degradation: %+v", q)
	}
	if cleanRes.Quality.FilesScanned != len(hosts)*3 {
		t.Fatalf("clean FilesScanned = %d", cleanRes.Quality.FilesScanned)
	}
	cleanRecs := recordByJob(cleanRes)

	for _, frac := range []float64{0.1, 0.5} {
		t.Run(fmt.Sprintf("frac=%v", frac), func(t *testing.T) {
			dirty := t.TempDir()
			m, err := faultinject.Inject(clean, dirty, faultinject.Spec{
				Seed: 1234, HostFrac: frac, SkewSec: 7200,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int(frac*float64(len(hosts)) + 0.999); len(m.Hosts) != want {
				t.Fatalf("victims = %d, want %d", len(m.Hosts), want)
			}

			// Lenient ingest never errors on injector output.
			seq, err := IngestRawOpts(dirty, acct, lenient)
			if err != nil {
				t.Fatalf("lenient one-worker ingest errored: %v", err)
			}
			par, err := IngestRawOpts(dirty, acct, Options{
				Policy: Lenient, MaxIntervalSec: degradeMaxInterval, Workers: 4,
			})
			if err != nil {
				t.Fatalf("lenient four-worker ingest errored: %v", err)
			}
			requireSameResult(t, "1 vs 4 workers", seq, par)

			// Quality totals equal the injector's manifest exactly.
			got := faultinject.Expected{
				FilesQuarantined:  seq.Quality.FilesQuarantined,
				RecordsDropped:    seq.Quality.RecordsDropped,
				DuplicatesSkipped: seq.Quality.DuplicatesSkipped,
				ResetsDetected:    seq.Quality.ResetsDetected,
				IntervalsClamped:  seq.Quality.IntervalsClamped,
			}
			if got != m.Expect {
				t.Fatalf("quality totals:\n got  %+v\n want %+v\nfaults: %+v", got, m.Expect, m.Faults)
			}
			if len(seq.Quality.Quarantined) != seq.Quality.FilesQuarantined {
				t.Fatalf("quarantine list length %d != count %d",
					len(seq.Quality.Quarantined), seq.Quality.FilesQuarantined)
			}
			for _, qf := range seq.Quality.Quarantined {
				if !m.Corrupted(qf.Host) {
					t.Fatalf("quarantined file on untouched host: %+v", qf)
				}
			}

			// Untouched jobs are byte-identical to the clean run.
			dirtyRecs := recordByJob(seq)
			for i, host := range hosts {
				jobID := int64(100 + i)
				if m.Corrupted(host) {
					continue
				}
				if dirtyRecs[jobID] != cleanRecs[jobID] {
					t.Errorf("untouched job %d (host %s) differs:\nclean %+v\ndirty %+v",
						jobID, host, cleanRecs[jobID], dirtyRecs[jobID])
				}
			}

			// Strict mode reports the first parse-breaking fault with
			// host/file context (record-level anomalies are tolerated in
			// both policies; only unreadable files abort).
			wantHost, wantFile := firstParseFault(m)
			if wantHost == "" {
				t.Fatalf("victim set has no parse-breaking fault; fix the fixture seed")
			}
			_, err = IngestRawOpts(dirty, acct, Options{Policy: Strict, MaxIntervalSec: degradeMaxInterval})
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("strict ingest error = %v, want FaultError", err)
			}
			if fe.Host != wantHost || fe.File != wantFile {
				t.Fatalf("strict fault at %s/%s, want %s/%s", fe.Host, fe.File, wantHost, wantFile)
			}
			if !strings.Contains(fe.Error(), "line ") {
				t.Fatalf("strict parse fault lacks line context: %v", fe)
			}
		})
	}
}

// firstParseFault returns the host/file of the fault a strict ingest
// must stop at: the first quarantine-class fault in sorted host order.
func firstParseFault(m *faultinject.Manifest) (string, string) {
	faults := append([]faultinject.Fault(nil), m.Faults...)
	sort.Slice(faults, func(i, j int) bool { return faults[i].Host < faults[j].Host })
	for _, f := range faults {
		if f.Kind == faultinject.KindGarble || f.Kind == faultinject.KindTruncate {
			return f.Host, f.File
		}
	}
	return "", ""
}

// TestIngestRetriesTransientErrors drives the bounded-retry path with a
// flaky filesystem: with enough retries the result is identical to the
// clean run; with none, the file is quarantined (lenient) or fatal
// (strict).
func TestIngestRetriesTransientErrors(t *testing.T) {
	dir := t.TempDir()
	_, acct := writeDegradeArchive(t, dir, 3)
	base := Options{Policy: Lenient, MaxIntervalSec: degradeMaxInterval}
	cleanRes, err := IngestRawOpts(dir, acct, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []faultinject.FailMode{faultinject.FailOpen, faultinject.FailRead} {
		name := map[faultinject.FailMode]string{faultinject.FailOpen: "open", faultinject.FailRead: "read"}[mode]
		t.Run(name, func(t *testing.T) {
			failures := map[string]int{"d001/2.raw": 2, "d002/1.raw": 1}
			ffs := faultinject.NewFlakyFS(os.DirFS(dir), mode, failures)
			var backoffs []int
			res, err := IngestRawOpts(dir, acct, Options{
				Policy: Lenient, MaxIntervalSec: degradeMaxInterval,
				FS: ffs, RetryMax: 2,
				Backoff: func(attempt int) { backoffs = append(backoffs, attempt) },
			})
			if err != nil {
				t.Fatalf("ingest with retries errored: %v", err)
			}
			if res.Quality.RetriesPerformed != 3 {
				t.Fatalf("RetriesPerformed = %d, want 3", res.Quality.RetriesPerformed)
			}
			if res.Quality.FilesQuarantined != 0 {
				t.Fatalf("retryable failures were quarantined: %+v", res.Quality)
			}
			if ffs.Injected() != 3 {
				t.Fatalf("injected = %d, want 3", ffs.Injected())
			}
			if len(backoffs) != 3 {
				t.Fatalf("backoff calls = %v", backoffs)
			}
			// Post-retry results are indistinguishable from a clean run.
			res.Quality.RetriesPerformed = 0
			requireSameResult(t, "retried vs clean", res, cleanRes)
		})
	}

	t.Run("exhausted-lenient", func(t *testing.T) {
		ffs := faultinject.NewFlakyFS(os.DirFS(dir), faultinject.FailOpen, map[string]int{"d001/2.raw": 5})
		res, err := IngestRawOpts(dir, acct, Options{
			Policy: Lenient, MaxIntervalSec: degradeMaxInterval, FS: ffs, RetryMax: 1,
		})
		if err != nil {
			t.Fatalf("lenient ingest errored: %v", err)
		}
		if res.Quality.FilesQuarantined != 1 || res.Quality.RetriesPerformed != 1 {
			t.Fatalf("quality = %+v, want 1 quarantine after 1 retry", res.Quality)
		}
		qf := res.Quality.Quarantined[0]
		if qf.Host != "d001" || qf.File != "2.raw" {
			t.Fatalf("quarantined %+v", qf)
		}
	})

	t.Run("exhausted-strict", func(t *testing.T) {
		ffs := faultinject.NewFlakyFS(os.DirFS(dir), faultinject.FailOpen, map[string]int{"d001/2.raw": 5})
		_, err := IngestRawOpts(dir, acct, Options{
			Policy: Strict, MaxIntervalSec: degradeMaxInterval, FS: ffs, RetryMax: 1,
		})
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Host != "d001" || fe.File != "2.raw" {
			t.Fatalf("strict error = %v, want fault at d001/2.raw", err)
		}
	})
}

// openLog is an fs.FS that records every host a file or directory is
// opened under.
type openLog struct {
	fs.FS
	mu    sync.Mutex
	hosts map[string]bool
}

func (l *openLog) Open(name string) (fs.File, error) {
	if host, _, _ := strings.Cut(name, "/"); host != "." {
		l.mu.Lock()
		l.hosts[host] = true
		l.mu.Unlock()
	}
	return l.FS.Open(name)
}

// TestStrictFaultStopsReading: once a strict ingest meets a fault in the
// first host, the hosts not yet started are never read — none after it
// at one worker, none past the 2*Workers window at four — and the error
// names the fault.
func TestStrictFaultStopsReading(t *testing.T) {
	dir := t.TempDir()
	hosts, acct := writeDegradeArchive(t, dir, 12)
	bad := filepath.Join(dir, hosts[0], "1.raw")
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(strings.Replace(string(raw), "mem 0 ", "mem 0 x", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		log := &openLog{FS: os.DirFS(dir), hosts: make(map[string]bool)}
		_, err := IngestRawOpts(dir, acct, Options{Policy: Strict, Workers: workers, FS: log})
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Host != hosts[0] || fe.File != "1.raw" {
			t.Fatalf("workers=%d: error = %v, want a fault at %s/1.raw", workers, err, hosts[0])
		}
		read := 1 // the faulting host alone
		if workers > 1 {
			read = 2 * workers
		}
		for _, host := range hosts[read:] {
			if log.hosts[host] {
				t.Errorf("workers=%d: host %s was read after the fault", workers, host)
			}
		}
	}
}

// TestIngestQuarantineStarvedJob is the satellite fix: a job whose only
// host file is quarantined must still be finalized (zero samples) and
// counted in JobsNoData, so Unattributed and DataQuality agree about
// where its data went.
func TestIngestQuarantineStarvedJob(t *testing.T) {
	dir := t.TempDir()
	host := "d000"
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "$tacc_stats 2.0\n$hostname d000\n$arch amd64_opteron\n" +
		"!cpu user,E,U=cs idle,E,U=cs\n" +
		"1000\ncpu 0 100 900\n1600\ncpu 0 not-a-number 1800\n2200\ncpu 0 300 2700\n"
	if err := os.WriteFile(filepath.Join(hostDir, "1.raw"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "bob", JobName: "app", JobID: 42, Account: "P",
		Submit: 900, Start: 1000, End: 2200, Status: workload.Completed,
		Slots: 2, NodeList: []string{host},
	}}
	res, err := IngestRawOpts(dir, acct, Options{Policy: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.FilesQuarantined != 1 {
		t.Fatalf("quality = %+v, want 1 quarantined file", res.Quality)
	}
	if res.Quality.JobsNoData != 1 {
		t.Fatalf("JobsNoData = %d, want 1 (job starved by quarantine)", res.Quality.JobsNoData)
	}
	if res.Store.Len() != 1 {
		t.Fatalf("records = %d, want 1 zero-metric identity record", res.Store.Len())
	}
	rec := res.Store.Record(0)
	if rec.JobID != 42 || rec.Samples != 0 {
		t.Fatalf("starved job record = %+v", rec)
	}
	if res.Unattributed != 0 {
		t.Fatalf("unattributed = %d; quarantined data must not leak there", res.Unattributed)
	}
}

// TestIngestClockSkewAttribution is the satellite table-driven test: an
// accounting window shifted by plus or minus one sampling interval
// against the raw timestamps must push the orphaned intervals into
// Unattributed, never into a neighboring job.
func TestIngestClockSkewAttribution(t *testing.T) {
	const step = 600
	dir := t.TempDir()
	host := "d000"
	hostDir := filepath.Join(dir, host)
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Three records at 1000/1600/2200: two intervals with midpoints
	// 1300 and 1900.
	var sb strings.Builder
	sb.WriteString("$tacc_stats 2.0\n$hostname d000\n$arch amd64_opteron\n!cpu user,E,U=cs idle,E,U=cs\n")
	for _, ts := range []int64{1000, 1600, 2200} {
		el := uint64(ts-1000) * 100
		fmt.Fprintf(&sb, "%d\ncpu 0 %d %d\n", ts, el/2, el/2)
	}
	if err := os.WriteFile(filepath.Join(hostDir, "1.raw"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	mkAcct := func(shift int64) []sched.AcctRecord {
		return []sched.AcctRecord{
			{Cluster: "ranger", Owner: "u", JobName: "a", JobID: 1, Account: "P",
				Submit: 900, Start: 1000 + shift, End: 2200 + shift,
				Status: workload.Completed, Slots: 2, NodeList: []string{host}},
			// Neighboring job on the same host, after a gap.
			{Cluster: "ranger", Owner: "v", JobName: "b", JobID: 2, Account: "P",
				Submit: 900, Start: 2800, End: 4000,
				Status: workload.Completed, Slots: 2, NodeList: []string{host}},
		}
	}

	cases := []struct {
		name             string
		shift            int64
		wantJob1Samples  int
		wantUnattributed int
	}{
		{"aligned", 0, 2, 0},
		{"acct-ahead-one-interval", +step, 1, 1},
		{"acct-behind-one-interval", -step, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := IngestRaw(dir, mkAcct(tc.shift))
			if err != nil {
				t.Fatal(err)
			}
			recs := recordByJob(res)
			if got := recs[1].Samples; got != tc.wantJob1Samples {
				t.Errorf("job 1 samples = %d, want %d", got, tc.wantJob1Samples)
			}
			if recs[2].Samples != 0 {
				t.Errorf("neighbor job stole %d skewed intervals", recs[2].Samples)
			}
			if res.Unattributed != tc.wantUnattributed {
				t.Errorf("unattributed = %d, want %d", res.Unattributed, tc.wantUnattributed)
			}
		})
	}
}

// TestIngestQualityRoundTrip covers the JSON hand-off between
// cmd/ingest and the reporting stage.
func TestIngestQualityRoundTrip(t *testing.T) {
	q := &DataQuality{
		FilesScanned: 10, FilesQuarantined: 2, RecordsDropped: 3,
		DuplicatesSkipped: 1, ResetsDetected: 1, IntervalsClamped: 2,
		RetriesPerformed: 4, JobsNoData: 1,
		Quarantined: []QuarantinedFile{{Host: "h1", File: "2.raw", Reason: "parse: line 9: boom"}},
	}
	dir := t.TempDir()
	if err := store.AtomicWriteFile(dir, "quality.json", func(f *os.File) error { return WriteQuality(f, q) }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "quality.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadQuality(f, f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, q)
	}
	if !got.Degraded() {
		t.Fatal("degraded report claims clean")
	}
	if c := got.Completeness(); c != 0.8 {
		t.Fatalf("completeness = %v, want 0.8", c)
	}
}

// TestIngestRefusesSchemaChange: a file that re-declares a type with a
// changed schema after the type's devices were read cannot be reduced —
// the metric plan resolves the type through the new column block, so
// the interval across the change differences the new block against a
// previous record that has no values there. The host is 100% user time
// throughout, in both key orders; reduced through the change, the
// second file read the user counter against zero and the job came out
// at a user fraction below 1. Lenient ingest quarantines that file,
// naming the type, and keeps the first file's intervals; strict ingest
// fails on it.
func TestIngestRefusesSchemaChange(t *testing.T) {
	dir := t.TempDir()
	hostDir := filepath.Join(dir, "d000")
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const head = "$tacc_stats 2.0\n$hostname d000\n$arch amd64_opteron\n!cpu user,E,U=cs idle,E,U=cs\n"
	files := map[string]string{
		"1.raw": head + "1000\ncpu 0 0 500\n1600\ncpu 0 60000 500\n2200\ncpu 0 120000 500\n",
		"2.raw": head + "2800\ncpu 0 180000 500\n3400\n!cpu idle,E,U=cs user,E,U=cs\ncpu 0 500 240000\n4000\ncpu 0 500 300000\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(hostDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "bob", JobName: "app", JobID: 42, Account: "P",
		Submit: 900, Start: 1000, End: 4000, Status: workload.Completed,
		Slots: 2, NodeList: []string{"d000"},
	}}
	res, err := IngestRawOpts(dir, acct, Options{Policy: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quality
	if q.FilesQuarantined != 1 || len(q.Quarantined) != 1 || q.Quarantined[0].File != "2.raw" ||
		!strings.Contains(q.Quarantined[0].Reason, "type cpu re-declared") {
		t.Fatalf("quality = %+v, want 2.raw quarantined for the cpu schema change", q)
	}
	if rec := res.Store.Record(0); rec.Samples != 2 || rec.CPUUserFrac != 1 {
		t.Errorf("job = %d samples at user fraction %v, want the first file's 2 intervals at 1", rec.Samples, rec.CPUUserFrac)
	}
	_, err = IngestRawOpts(dir, acct, Options{Policy: Strict})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Host != "d000" || fe.File != "2.raw" || !strings.Contains(err.Error(), "type cpu re-declared") {
		t.Fatalf("strict: error = %v, want a fault at d000/2.raw naming type cpu", err)
	}
}
