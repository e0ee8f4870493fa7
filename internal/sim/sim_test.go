package sim

import (
	"math"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/store"
)

// smallConfig is a quick run: 32 Ranger-like nodes, 7 days.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(cluster.RangerConfig().Scaled(32), seed)
	cfg.DurationMin = 7 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	return cfg
}

func TestRunProducesJobs(t *testing.T) {
	res, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsSubmitted < 50 {
		t.Fatalf("submitted = %d, too few", res.JobsSubmitted)
	}
	if res.Store.Len() == 0 {
		t.Fatal("no job records")
	}
	if res.JobsCompleted != res.Store.Len() {
		t.Errorf("completed %d != store %d", res.JobsCompleted, res.Store.Len())
	}
	if len(res.Acct) == 0 {
		t.Fatal("no accounting records")
	}
	if len(res.Lariat) != res.Store.Len() {
		t.Errorf("lariat %d records, store %d", len(res.Lariat), res.Store.Len())
	}
	// 7 days at 10-minute sampling = 1008 system samples.
	if len(res.Series) != 1008 {
		t.Errorf("series samples = %d, want 1008", len(res.Series))
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("store lengths differ: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	for i := 0; i < a.Store.Len(); i++ {
		if a.Store.Record(i) != b.Store.Record(i) {
			t.Fatalf("record %d differs between identically-seeded runs", i)
		}
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series sample %d differs", i)
		}
	}
}

func TestJobRecordsConsistent(t *testing.T) {
	res, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Store.Len(); i++ {
		r := res.Store.Record(i)
		if r.Start < r.Submit {
			t.Errorf("job %d started before submit", r.JobID)
		}
		if r.End < r.Start {
			t.Errorf("job %d ended before start", r.JobID)
		}
		if r.Samples > 0 {
			sum := r.CPUIdleFrac + r.CPUUserFrac + r.CPUSysFrac
			if sum < 0.6 || sum > 1.01 {
				t.Errorf("job %d cpu fracs sum to %v", r.JobID, sum)
			}
			if r.MemUsedMaxGB < r.MemUsedGB-1e-9 {
				t.Errorf("job %d mem max %v < mean %v", r.JobID, r.MemUsedMaxGB, r.MemUsedGB)
			}
			if r.MemUsedGB > 32*0.96 {
				t.Errorf("job %d mem %v exceeds capacity clamp", r.JobID, r.MemUsedGB)
			}
			if r.FlopsGF < 0 {
				t.Errorf("job %d negative flops", r.JobID)
			}
		}
	}
}

func TestSystemSeriesSane(t *testing.T) {
	res, err := Run(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.RangerConfig().Scaled(32)
	peakTF := cfg.PeakTFlops()
	var busySum float64
	for _, s := range res.Series {
		if s.ActiveNodes != 32 {
			t.Fatalf("active = %d with no outages", s.ActiveNodes)
		}
		if s.BusyNodes < 0 || s.BusyNodes > 32 {
			t.Fatalf("busy = %d", s.BusyNodes)
		}
		if s.TotalTFlops < 0 || s.TotalTFlops > peakTF {
			t.Fatalf("tflops = %v beyond peak %v", s.TotalTFlops, peakTF)
		}
		if s.MemPerNode < 0 || s.MemPerNode > 32 {
			t.Fatalf("mem/node = %v", s.MemPerNode)
		}
		busySum += float64(s.BusyNodes)
	}
	// The over-requested system should keep most nodes busy.
	util := busySum / float64(len(res.Series)) / 32
	if util < 0.6 {
		t.Errorf("mean utilization = %v, want the loaded regime", util)
	}
}

func TestShutdownsVisibleInSeries(t *testing.T) {
	cfg := smallConfig(9)
	cfg.DurationMin = 10 * 24 * 60
	cfg.Shutdowns = []Shutdown{{StartMin: 3 * 24 * 60, DurationMin: 12 * 60}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minActive := 1 << 30
	for _, s := range res.Series {
		if s.ActiveNodes < minActive {
			minActive = s.ActiveNodes
		}
	}
	if minActive != 0 {
		t.Errorf("min active nodes = %d, want 0 during shutdown (Fig 8)", minActive)
	}
	// The cluster recovers afterwards.
	last := res.Series[len(res.Series)-1]
	if last.ActiveNodes != 32 {
		t.Errorf("final active = %d, want full recovery", last.ActiveNodes)
	}
	// Shutdown produces NODE_FAIL accounting and log events.
	foundMaint := false
	for _, ev := range res.Events {
		if ev.Component == "sge" && ev.Severity == 1 {
			foundMaint = true
		}
	}
	if !foundMaint {
		t.Error("no maintenance events logged")
	}
}

func TestNodeFailuresKillJobs(t *testing.T) {
	cfg := smallConfig(11)
	cfg.NodeMTBFHours = 100 // aggressively failing hardware
	cfg.NodeRepairMin = 120
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodeFails := 0
	for i := 0; i < res.Store.Len(); i++ {
		if res.Store.Record(i).Status == "NODE_FAIL" {
			nodeFails++
		}
	}
	if nodeFails == 0 {
		t.Error("expected NODE_FAIL jobs with MTBF=100h")
	}
	lockups := 0
	for _, ev := range res.Events {
		if ev.Component == "kernel" {
			lockups++
		}
	}
	if lockups == 0 {
		t.Error("expected soft lockup events")
	}
}

func TestEfficiencyNearPaperTargets(t *testing.T) {
	// Fig 4: Ranger ~90% efficiency (10% idle), Lonestar4 ~85%.
	runIdle := func(cc cluster.Config, seed int64) float64 {
		cfg := DefaultConfig(cc, seed)
		cfg.DurationMin = 14 * 24 * 60
		cfg.Shutdowns = nil
		cfg.NodeMTBFHours = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Store.AsSet().Aggregate(store.MetricCPUIdle, store.Filter{MinSamples: 1}).Mean
	}
	ranger := runIdle(cluster.RangerConfig().Scaled(48), 21)
	ls4 := runIdle(cluster.Lonestar4Config().Scaled(48), 21)
	if ranger < 0.05 || ranger > 0.20 {
		t.Errorf("Ranger weighted idle = %v, want ~0.10", ranger)
	}
	if ls4 < 0.08 || ls4 > 0.28 {
		t.Errorf("LS4 weighted idle = %v, want ~0.15", ls4)
	}
	if ls4 <= ranger {
		t.Errorf("LS4 idle (%v) should exceed Ranger (%v)", ls4, ranger)
	}
}

func TestFlopsFractionOfPeak(t *testing.T) {
	// Figs 9-10: delivered FLOPS are a few percent of peak.
	cfg := smallConfig(31)
	cfg.DurationMin = 14 * 24 * 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := store.SeriesSummary(res.Series, "total_tflops").Mean
	peak := cluster.RangerConfig().Scaled(32).PeakTFlops()
	frac := mean / peak
	if frac < 0.005 || frac > 0.15 {
		t.Errorf("flops fraction of peak = %v, want a few percent", frac)
	}
}

func TestMemoryFractionOfCapacity(t *testing.T) {
	// Figs 11-12: Ranger mean memory under half of 32 GB; LS4 fuller.
	run := func(cc cluster.Config) float64 {
		cfg := DefaultConfig(cc, 41)
		cfg.DurationMin = 14 * 24 * 60
		cfg.Shutdowns = nil
		cfg.NodeMTBFHours = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return store.SeriesSummary(res.Series, "mem_used").Mean / cc.MemPerNodeGB
	}
	ranger := run(cluster.RangerConfig().Scaled(48))
	ls4 := run(cluster.Lonestar4Config().Scaled(48))
	if ranger > 0.5 {
		t.Errorf("Ranger mem fraction = %v, want < 0.5", ranger)
	}
	if ls4 <= ranger {
		t.Errorf("LS4 mem fraction (%v) should exceed Ranger (%v)", ls4, ranger)
	}
	if math.IsNaN(ranger) || math.IsNaN(ls4) {
		t.Fatal("NaN memory fractions")
	}
}

func TestDiurnalWorkloadThroughEngine(t *testing.T) {
	cfg := smallConfig(61)
	cfg.Gen.Diurnal = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsSubmitted < 50 {
		t.Fatalf("submitted = %d", res.JobsSubmitted)
	}
	// The queue smooths the diurnal arrivals: utilization stays high.
	var busy float64
	for _, s := range res.Series {
		busy += float64(s.BusyNodes)
	}
	if util := busy / float64(len(res.Series)) / 32; util < 0.5 {
		t.Errorf("diurnal utilization = %v", util)
	}
}

func TestStampedePresetThroughEngine(t *testing.T) {
	cfg := DefaultConfig(cluster.StampedeConfig().Scaled(24), 71)
	cfg.DurationMin = 5 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() == 0 {
		t.Fatal("no stampede jobs")
	}
	// Sandy Bridge reports through the Intel PMC path: flops exist.
	agg := res.Store.AsSet().Aggregate(store.MetricFlops, store.Filter{MinSamples: 1})
	if !(agg.Mean > 0) {
		t.Errorf("stampede flops = %v", agg.Mean)
	}
}
