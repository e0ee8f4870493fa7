package anomaly_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"supremm/internal/anomaly"
	"supremm/internal/eventlog"
	"supremm/internal/reference"
	"supremm/internal/store"
)

// population builds a store with `n` normal jobs of one app plus
// injected outliers.
func population(n int) *store.Store {
	st := store.New()
	for i := 0; i < n; i++ {
		st.Add(store.JobRecord{
			JobID: int64(i + 1), Cluster: "ranger", User: "normal",
			App: "namd", Science: "Physics", Nodes: 4,
			Start: 0, End: 7200, Status: "COMPLETED", Samples: 12,
			CPUIdleFrac: 0.08 + 0.001*float64(i%20), CPUUserFrac: 0.87, CPUSysFrac: 0.05,
			MemUsedGB: 6 + 0.05*float64(i%10), MemUsedMaxGB: 7 + 0.06*float64(i%10),
			FlopsGF: 5 + 0.1*float64(i%10), ScratchWriteMB: 1, WorkWriteMB: 0.1,
			ReadMB: 0.5, IBTxMB: 20, IBRxMB: 19, LnetTxMB: 2,
		})
	}
	return st
}

func addOutlier(st *store.Store, id int64, idle, memMax float64) {
	st.Add(store.JobRecord{
		JobID: id, Cluster: "ranger", User: "suspect",
		App: "namd", Science: "Physics", Nodes: 4,
		Start: 0, End: 7200, Status: "FAILED", Samples: 12,
		CPUIdleFrac: idle, CPUUserFrac: 1 - idle - 0.05, CPUSysFrac: 0.05,
		MemUsedGB: 6, MemUsedMaxGB: memMax,
		FlopsGF: 5, ScratchWriteMB: 1, WorkWriteMB: 0.1,
		ReadMB: 0.5, IBTxMB: 20, IBRxMB: 19, LnetTxMB: 2,
	})
}

func TestDetectFlagsOutliers(t *testing.T) {
	st := population(100)
	addOutlier(st, 900, 0.9, 30) // very idle, huge memory peak
	d := anomaly.NewDetector()
	found := d.Detect(st.AsSet(), store.Filter{}, []store.Metric{store.MetricCPUIdle, store.MetricMemUsedMax})
	if len(found) == 0 {
		t.Fatal("outlier not detected")
	}
	seen := map[store.Metric]bool{}
	for _, a := range found {
		if a.JobID != 900 {
			t.Errorf("false positive: job %d metric %s score %v", a.JobID, a.Metric, a.Score)
		}
		seen[a.Metric] = true
		if math.Abs(a.Score) < d.MinScore {
			t.Errorf("score %v below threshold", a.Score)
		}
	}
	if !seen[store.MetricCPUIdle] || !seen[store.MetricMemUsedMax] {
		t.Errorf("expected both metrics flagged, got %v", seen)
	}
}

func TestDetectSkipsSmallPopulations(t *testing.T) {
	st := population(5) // below MinPopulation
	addOutlier(st, 900, 0.9, 30)
	found := anomaly.NewDetector().Detect(st.AsSet(), store.Filter{}, []store.Metric{store.MetricCPUIdle})
	if len(found) != 0 {
		t.Errorf("small population should not be scored, got %d anomalies", len(found))
	}
}

func TestDetectPerAppPopulations(t *testing.T) {
	// A datamover's IO rate is normal for datamovers even though it
	// would be a wild outlier among NAMD jobs.
	st := population(50)
	for i := 0; i < 50; i++ {
		st.Add(store.JobRecord{
			JobID: int64(1000 + i), Cluster: "ranger", User: "io",
			App: "datamover", Science: "Other", Nodes: 1,
			Start: 0, End: 7200, Status: "COMPLETED", Samples: 12,
			CPUIdleFrac: 0.7, CPUUserFrac: 0.25, CPUSysFrac: 0.05,
			MemUsedGB: 4, MemUsedMaxGB: 5, FlopsGF: 0.1,
			ScratchWriteMB: 20 + 0.2*float64(i%10), WorkWriteMB: 2,
			ReadMB: 30, IBTxMB: 2, IBRxMB: 2, LnetTxMB: 50,
		})
	}
	found := anomaly.NewDetector().Detect(st.AsSet(), store.Filter{}, []store.Metric{store.MetricScratchWrite})
	if len(found) != 0 {
		t.Errorf("per-app scoring broken: %d false positives", len(found))
	}
}

func TestRobustZDegenerate(t *testing.T) {
	if !math.IsNaN(anomaly.RobustZ(1, 1, 0)) {
		t.Error("zero IQR should give NaN")
	}
}

func TestLinkInfersCauses(t *testing.T) {
	anomalies := []anomaly.Anomaly{
		{JobID: 1, User: "a", App: "vasp", Metric: store.MetricMemUsedMax, Score: 6, Value: 30},
		{JobID: 2, User: "b", App: "enzo", Metric: store.MetricScratchWrite, Score: 5, Value: 80},
		{JobID: 3, User: "c", App: "namd", Metric: store.MetricCPUIdle, Score: 5, Value: 0.9},
		{JobID: 4, User: "d", App: "namd", Metric: store.MetricCPUIdle, Score: 7, Value: 0.95},
		{JobID: 5, User: "e", App: "milc", Metric: store.MetricFlops, Score: -5, Value: 0.1},
	}
	events := []eventlog.Event{
		{Time: 1, Host: "h1", JobID: 1, Severity: eventlog.Critical, Component: "oom", Message: "killed"},
		{Time: 2, Host: "h2", JobID: 2, Severity: eventlog.Error, Component: "lustre", Message: "timeout"},
		{Time: 3, Host: "h3", JobID: 3, Severity: eventlog.Critical, Component: "kernel", Message: "soft lockup"},
		{Time: 4, Host: "h4", JobID: 99, Severity: eventlog.Info, Component: "sge", Message: "unrelated"},
		{Time: 5, Host: "h5", JobID: 5, Severity: eventlog.Warning, Component: "sge", Message: "requeue"},
	}
	diags := anomaly.Link(anomalies, events)
	if len(diags) != 5 {
		t.Fatalf("diagnoses = %d, want 5", len(diags))
	}
	byJob := map[int64]anomaly.Diagnosis{}
	for _, d := range diags {
		byJob[d.JobID] = d
	}
	if !strings.Contains(byJob[1].Cause, "memory exhaustion") {
		t.Errorf("job 1 cause = %q", byJob[1].Cause)
	}
	if !strings.Contains(byJob[2].Cause, "filesystem contention") {
		t.Errorf("job 2 cause = %q", byJob[2].Cause)
	}
	if !strings.Contains(byJob[3].Cause, "soft lockup") {
		t.Errorf("job 3 cause = %q", byJob[3].Cause)
	}
	if !strings.Contains(byJob[4].Cause, "inefficient resource use") {
		t.Errorf("job 4 cause = %q", byJob[4].Cause)
	}
	if !strings.Contains(byJob[5].Cause, "unclassified") {
		t.Errorf("job 5 cause = %q", byJob[5].Cause)
	}
	if len(byJob[1].Events) != 1 {
		t.Errorf("job 1 events = %d", len(byJob[1].Events))
	}
	if s := byJob[1].String(); !strings.Contains(s, "job 1") {
		t.Errorf("diagnosis string = %q", s)
	}
}

func TestLinkNoEvents(t *testing.T) {
	diags := anomaly.Link([]anomaly.Anomaly{{JobID: 9, Metric: store.MetricFlops, Score: 5}}, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Cause, "statistical outlier") {
		t.Errorf("diags = %+v", diags)
	}
}

func TestFailureProfiles(t *testing.T) {
	st := store.New()
	add := func(id int64, app, status string) {
		st.Add(store.JobRecord{
			JobID: id, Cluster: "ranger", User: "u", App: app,
			Start: 0, End: 3600, Status: status, Samples: 6, Nodes: 1,
		})
	}
	add(1, "namd", "COMPLETED")
	add(2, "namd", "COMPLETED")
	add(3, "namd", "FAILED")
	add(4, "namd", "TIMEOUT")
	add(5, "amber", "NODE_FAIL")
	ss := st.AsSet()
	profiles := anomaly.FailureProfiles(ss, store.ByApp, store.Filter{})
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	namd := profiles[0] // most jobs first
	if namd.Key != "namd" || namd.Jobs != 4 || namd.Completed != 2 || namd.Failed != 1 || namd.Timeout != 1 {
		t.Errorf("namd profile: %+v", namd)
	}
	if math.Abs(namd.FailurePct-50) > 1e-9 {
		t.Errorf("namd failure pct = %v", namd.FailurePct)
	}
	amber := profiles[1]
	if amber.NodeFail != 1 || amber.FailurePct != 100 {
		t.Errorf("amber profile: %+v", amber)
	}
	byUser := anomaly.FailureProfiles(ss, store.ByUser, store.Filter{})
	if len(byUser) != 1 || byUser[0].Key != "u" {
		t.Errorf("by user: %+v", byUser)
	}
}

// TestFailureProfilesMatchRowOracle holds the dictionary-code walk to
// internal/reference, bit for bit, on one partition and on a job-end day
// split, for every dimension and a key that is none (which counts by
// cluster), filtered and not.
func TestFailureProfilesMatchRowOracle(t *testing.T) {
	statuses := []string{"COMPLETED", "COMPLETED", "FAILED", "TIMEOUT", "NODE_FAIL", "CANCELLED", "COMPLETED"}
	apps := []string{"namd", "amber", "wrf", "hpl", "gromacs"}
	rows := make([]store.JobRecord, 900) // ends ascend: already in day order
	mono := store.New()
	for i := range rows {
		end := int64(i)*700 + 3600
		rows[i] = store.JobRecord{
			JobID: int64(i + 1), Cluster: []string{"ranger", "lonestar4"}[i%11%2],
			User: fmt.Sprintf("u%02d", i*7%23), App: apps[i*3%len(apps)],
			Science: []string{"Physics", "Chemistry"}[i%13/12], Nodes: 1 + i%4, Start: end - 3600, End: end,
			Status: statuses[i*5%len(statuses)], Samples: i % 5,
		}
		mono.Add(rows[i])
	}
	dir := t.TempDir()
	if err := store.WriteShardDir(dir, mono); err != nil {
		t.Fatal(err)
	}
	split, err := store.LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if split.NumShards() < 5 {
		t.Fatalf("fixture: %d day shards, want several", split.NumShards())
	}
	for _, set := range []struct {
		st  store.Reader
		ref reference.Parts
	}{{mono.AsSet(), reference.Parts{rows}}, {split, reference.ByEndDay(rows)}} {
		for _, by := range []store.GroupKey{store.ByApp, store.ByUser, store.ByScience, store.ByCluster, store.ByStatus, store.GroupKey(99)} {
			for _, f := range []store.Filter{{}, {MinSamples: 2}, {App: "wrf", EndAfter: 90000}, {User: "nobody"}} {
				if got, want := anomaly.FailureProfiles(set.st, by, f), set.ref.FailureProfiles(by, f); !reference.Same(got, want) {
					t.Errorf("%d partitions by %s filter %+v:\n got %+v\nwant %+v", len(set.ref), by.Name(), f, got, want)
				}
			}
		}
	}
}
