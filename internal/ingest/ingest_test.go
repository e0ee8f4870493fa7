package ingest

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/fstest"

	"supremm/internal/reference"
	"supremm/internal/sched"
	"supremm/internal/store"
	"supremm/internal/workload"
)

func identity(id int64) store.JobRecord {
	return store.JobRecord{
		JobID: id, Cluster: "ranger", User: "u", App: "namd",
		Science: "Physics", Nodes: 2, Submit: 0, Start: 100, End: 0,
		Status: "COMPLETED",
	}
}

func TestAccumulatorLifecycle(t *testing.T) {
	a := NewAccumulator()
	a.StartJob(identity(1))
	if !a.Started(1) || a.Started(2) {
		t.Fatal("Started bookkeeping wrong")
	}
	if a.Pending() != 1 {
		t.Fatalf("pending = %d", a.Pending())
	}
	u := workload.NodeUsage{
		IdleFrac: 0.1, UserFrac: 0.85, SysFrac: 0.05,
		MemUsedKB:     4 << 20, // 4 GB
		Flops:         6e12,    // over the interval
		ScratchWriteB: 600e6, WorkWriteB: 60e6, ReadB: 120e6,
		IBTxB: 1.2e9, IBRxB: 1.1e9, LnetTxB: 2.4e8,
	}
	// Two nodes, 600-second interval.
	if err := a.AddUsage(1, 2, 600, u); err != nil {
		t.Fatal(err)
	}
	rec, err := a.FinishJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Error("job not removed after finish")
	}
	if rec.Samples != 1 {
		t.Errorf("samples = %d", rec.Samples)
	}
	if math.Abs(rec.CPUIdleFrac-0.1) > 1e-12 {
		t.Errorf("idle = %v", rec.CPUIdleFrac)
	}
	if math.Abs(rec.MemUsedGB-4) > 1e-9 {
		t.Errorf("mem = %v GB", rec.MemUsedGB)
	}
	if math.Abs(rec.MemUsedMaxGB-4) > 1e-9 {
		t.Errorf("mem max = %v GB", rec.MemUsedMaxGB)
	}
	// Flops: 6e12 per node over 600 s = 10 GF/s per node.
	if math.Abs(rec.FlopsGF-10) > 1e-9 {
		t.Errorf("flops = %v GF", rec.FlopsGF)
	}
	// Scratch: 600e6 B per node / 600 s = 1 MB/s.
	if math.Abs(rec.ScratchWriteMB-1) > 1e-9 {
		t.Errorf("scratch = %v MB/s", rec.ScratchWriteMB)
	}
	if math.Abs(rec.IBTxMB-2) > 1e-9 {
		t.Errorf("ib tx = %v MB/s", rec.IBTxMB)
	}
}

func TestAccumulatorUnknownJobErrors(t *testing.T) {
	a := NewAccumulator()
	if err := a.AddUsage(7, 1, 600, workload.NodeUsage{}); err == nil {
		t.Error("AddUsage on unknown job should error")
	}
	if err := a.AddInterval(7, Interval{}); err == nil {
		t.Error("AddInterval on unknown job should error")
	}
	if _, err := a.FinishJob(7); err == nil {
		t.Error("FinishJob on unknown job should error")
	}
}

func TestAccumulatorZeroSampleJob(t *testing.T) {
	a := NewAccumulator()
	a.StartJob(identity(3))
	rec, err := a.FinishJob(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Samples != 0 || rec.CPUIdleFrac != 0 || rec.FlopsGF != 0 {
		t.Errorf("zero-sample job should have zero metrics: %+v", rec)
	}
}

func TestAddIntervalMatchesAddUsagePerNode(t *testing.T) {
	// One node's interval via the raw path must equal the same usage via
	// the direct path with nodes=1.
	direct := NewAccumulator()
	raw := NewAccumulator()
	direct.StartJob(identity(1))
	raw.StartJob(identity(1))
	u := workload.NodeUsage{
		IdleFrac: 0.2, UserFrac: 0.75, SysFrac: 0.05,
		MemUsedKB: 8 << 20, Flops: 1e12,
		ScratchWriteB: 3e8, WorkWriteB: 2e7, ReadB: 5e7,
		IBTxB: 9e8, IBRxB: 8e8, LnetTxB: 1e8,
	}
	if err := direct.AddUsage(1, 1, 600, u); err != nil {
		t.Fatal(err)
	}
	iv := Interval{
		DtSec: 600, IdleFrac: u.IdleFrac, UserFrac: u.UserFrac, SysFrac: u.SysFrac,
		MemUsedKB: float64(u.MemUsedKB), Flops: u.Flops,
		ScratchB: u.ScratchWriteB, WorkB: u.WorkWriteB, ReadB: u.ReadB,
		IBTxB: u.IBTxB, IBRxB: u.IBRxB, LnetTxB: u.LnetTxB,
	}
	if err := raw.AddInterval(1, iv); err != nil {
		t.Fatal(err)
	}
	dr, _ := direct.FinishJob(1)
	rr, _ := raw.FinishJob(1)
	if dr != rr {
		t.Errorf("paths disagree:\n direct %+v\n raw    %+v", dr, rr)
	}
}

func TestEventDelta(t *testing.T) {
	if got := eventDelta(100, 150); got != 50 {
		t.Errorf("normal delta = %v", got)
	}
	// Counter reset (PMC reprogram at job begin): new value IS the delta.
	if got := eventDelta(1000, 30); got != 30 {
		t.Errorf("reset delta = %v", got)
	}
	if got := eventDelta(5, 5); got != 0 {
		t.Errorf("no-change delta = %v", got)
	}
}

func TestFindJob(t *testing.T) {
	windows := []jobWindow{
		{start: 100, end: 200, jobID: 1},
		{start: 300, end: 400, jobID: 2},
	}
	orderWindows(windows)
	cases := []struct {
		t    int64
		want int64
	}{
		{50, 0}, {100, 1}, {150, 1}, {200, 1}, {250, 0}, {350, 2}, {450, 0},
	}
	for _, c := range cases {
		if got := findJob(windows, c.t); got != c.want {
			t.Errorf("findJob(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if findJob(nil, 100) != 0 {
		t.Error("empty windows should find nothing")
	}
}

// TestNestedJobKeepsItsLaterIntervals: a short job nested in a long one
// on the same host takes the interval whose midpoint it holds, and the
// long job keeps the two after the short one ended — in IngestRawOpts
// and in reference.Ingest alike.
func TestNestedJobKeepsItsLaterIntervals(t *testing.T) {
	acct := []sched.AcctRecord{
		{Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 1, Account: "Physics",
			Submit: 900, Start: 1000, End: 2800, Status: workload.Completed, Slots: 16, NodeList: []string{"h0"}},
		{Cluster: "ranger", Owner: "bob", JobName: "wrf", JobID: 2, Account: "Chemistry",
			Submit: 1100, Start: 1200, End: 1400, Status: workload.Completed, Slots: 16, NodeList: []string{"h0"}},
	}
	const head = "$tacc_stats 2.0\n$hostname h\n$arch amd64_opteron\n!cpu user,E,U=cs idle,E,U=cs\n"
	fsys := fstest.MapFS{"h0/1.raw": &fstest.MapFile{Data: []byte(head +
		"1000\ncpu 0 0 500\n1600\ncpu 0 60000 500\n2200\ncpu 0 120000 500\n2800\ncpu 0 180000 500\n")}}
	want, err := reference.Ingest(fsys, acct, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[int64]int{}
	for _, j := range want.Jobs {
		samples[j.JobID] = j.Samples
	}
	if samples[1] != 2 || samples[2] != 1 {
		t.Errorf("reference: job samples %v, want job 1: 2 and job 2: 1", samples)
	}
	for _, workers := range []int{1, 2} {
		got, err := IngestRawOpts("", acct, Options{Workers: workers, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

func TestIngestRawErrors(t *testing.T) {
	if _, err := IngestRaw("/nonexistent/path", nil); err == nil {
		t.Error("missing dir should error")
	}
	// Corrupt raw file.
	dir := t.TempDir()
	host := filepath.Join(dir, "c000-000.ranger")
	if err := os.MkdirAll(host, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(host, "0.raw"), []byte("$tacc_stats 2.0\n100\ncpu 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IngestRaw(dir, nil); err == nil {
		t.Error("corrupt raw file should error")
	}
}

func TestIngestRawEmptyDir(t *testing.T) {
	res, err := IngestRaw(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 0 || len(res.Series) != 0 {
		t.Errorf("empty dir should produce empty result: %+v", res)
	}
}

func TestIngestRawJobWithNoSamples(t *testing.T) {
	// A job in accounting but absent from raw data (shorter than the
	// sampling interval) still gets an identity record with Samples=0.
	dir := t.TempDir()
	acct := []sched.AcctRecord{{
		Cluster: "ranger", Owner: "u", JobName: "namd", JobID: 42,
		Account: "Physics", Submit: 0, Start: 10, End: 20,
		Status: workload.Completed, Slots: 16, NodeList: []string{"hostX"},
	}}
	res, err := IngestRaw(dir, acct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 1 {
		t.Fatalf("store len = %d", res.Store.Len())
	}
	rec := res.Store.Record(0)
	if rec.JobID != 42 || rec.Samples != 0 {
		t.Errorf("record = %+v", rec)
	}
}

func TestIdentityFromJob(t *testing.T) {
	apps := workload.DefaultApps()
	j := &workload.Job{
		ID:   9,
		User: &workload.User{Name: "alice", Science: workload.Chemistry},
		App:  workload.AppByName(apps, "vasp"), Nodes: 8,
	}
	rec := IdentityFromJob(j, "ranger", 10, 20, 30, workload.Timeout)
	if rec.JobID != 9 || rec.User != "alice" || rec.App != "vasp" ||
		rec.Science != string(workload.Chemistry) || rec.Nodes != 8 ||
		rec.Submit != 10 || rec.Start != 20 || rec.End != 30 || rec.Status != "TIMEOUT" {
		t.Errorf("identity = %+v", rec)
	}
}
