package appkernels

import (
	"math"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/sim"
	"supremm/internal/store"
	"supremm/internal/workload"
)

func TestDefaultKernels(t *testing.T) {
	ks := DefaultKernels(workload.DefaultApps())
	if len(ks) != 3 {
		t.Fatalf("kernels = %d", len(ks))
	}
	for _, k := range ks {
		if k.App == nil {
			t.Errorf("%s: missing app", k.Name)
		}
		if k.Nodes < 1 || k.RuntimeMin <= 0 || k.PeriodMin <= 0 {
			t.Errorf("%s: bad geometry %+v", k.Name, k)
		}
	}
}

func TestInjectProducesPeriodicRuns(t *testing.T) {
	ks := DefaultKernels(workload.DefaultApps())
	horizon := 5 * 24 * 60.0
	jobs := Inject(nil, ks, horizon, 1_000_000, 7)
	// 3 kernels every 12h over 5 days = ~10 runs each.
	if len(jobs) < 27 || len(jobs) > 33 {
		t.Fatalf("injected %d kernel jobs, want ~30", len(jobs))
	}
	perKernel := map[string]int{}
	var prev float64
	for _, j := range jobs {
		if j.SubmitMin < prev {
			t.Fatal("stream not sorted")
		}
		prev = j.SubmitMin
		if j.User.Name != KernelUser {
			t.Errorf("kernel user = %q", j.User.Name)
		}
		perKernel[j.App.Name]++
		if j.ID < 1_000_000 {
			t.Errorf("kernel id %d below base", j.ID)
		}
	}
	if len(perKernel) != 3 {
		t.Errorf("kernels seen: %v", perKernel)
	}
	// Kernel app names must be the kernel names, not the base codes.
	if perKernel["milc"] != 0 || perKernel["ak.compute"] == 0 {
		t.Errorf("kernel naming broken: %v", perKernel)
	}
	// Merging with a production stream keeps both.
	base := []*workload.Job{{ID: 1, SubmitMin: 10, User: kernelUserRecord, App: ks[0].App}}
	merged := Inject(base, ks, horizon, 1_000_000, 7)
	if len(merged) != len(jobs)+1 {
		t.Errorf("merge lost jobs: %d vs %d+1", len(merged), len(jobs))
	}
	// Nil apps are skipped, not crashed on.
	if got := Inject(nil, []Kernel{{Name: "x"}}, horizon, 1, 1); len(got) != 0 {
		t.Errorf("nil-app kernel injected %d jobs", len(got))
	}
}

func TestKernelsThroughSimulation(t *testing.T) {
	// End-to-end: inject kernels into a production stream, run the full
	// simulation, extract the kernel series and audit them.
	cc := cluster.RangerConfig().Scaled(24)
	cfg := sim.DefaultConfig(cc, 17)
	cfg.DurationMin = 14 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.HorizonMin = cfg.DurationMin
	ks := DefaultKernels(workload.DefaultApps())
	production := workload.NewGenerator(cfg.Gen).Generate()
	cfg.Jobs = Inject(production, ks, cfg.DurationMin, 1_000_000, 17)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := res.Store.AsSet()
	for _, k := range ks {
		runs := Series(ss, k.Name)
		// 14 days at 12h cadence = ~28 submissions; nearly all should
		// run (kernels are small and the queue drains them).
		if len(runs) < 15 {
			t.Errorf("%s: only %d runs made it through", k.Name, len(runs))
			continue
		}
		v, err := NewAuditor().Audit(k.Name, runs)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		// A healthy system must not flag its own kernels.
		if v.Degraded {
			t.Errorf("%s flagged degraded on a healthy run: %+v", k.Name, v)
		}
		if v.BaselineMean <= 0 {
			t.Errorf("%s: no flops measured", k.Name)
		}
	}
}

// synthRuns builds a flops history with an optional degradation at the
// tail.
func synthRuns(n int, base float64, tailDrop float64) []RunPoint {
	runs := make([]RunPoint, n)
	for i := range runs {
		v := base + 0.02*base*math.Sin(float64(i))
		if i >= n-5 {
			v *= 1 - tailDrop
		}
		runs[i] = RunPoint{JobID: int64(i), End: int64(i * 3600), FlopsGF: v}
	}
	return runs
}

func TestAuditHealthyKernel(t *testing.T) {
	a := NewAuditor()
	v, err := a.Audit("ak.compute", synthRuns(20, 100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Degraded {
		t.Errorf("healthy kernel flagged: %+v", v)
	}
	if math.Abs(v.DeltaPct) > 5 {
		t.Errorf("healthy delta = %v%%", v.DeltaPct)
	}
}

func TestAuditDegradedKernel(t *testing.T) {
	a := NewAuditor()
	v, err := a.Audit("ak.io", synthRuns(20, 100, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Degraded {
		t.Errorf("30%% regression not flagged: %+v", v)
	}
	if v.DeltaPct > -20 {
		t.Errorf("delta = %v%%, want about -30", v.DeltaPct)
	}
}

func TestAuditShortHistoryErrors(t *testing.T) {
	a := NewAuditor()
	if _, err := a.Audit("x", synthRuns(5, 100, 0)); err == nil {
		t.Error("short history should error")
	}
}

func TestAuditAll(t *testing.T) {
	st := store.New()
	for i := 0; i < 20; i++ {
		flops := 50.0
		if i >= 15 {
			flops = 20 // degraded tail
		}
		st.Add(store.JobRecord{
			JobID: int64(i + 1), Cluster: "ranger", User: KernelUser,
			App: "ak.compute", Nodes: 4, Start: int64(i * 7200),
			End: int64(i*7200 + 3600), Status: "COMPLETED", Samples: 6,
			FlopsGF: flops,
		})
	}
	ks := []Kernel{{Name: "ak.compute", App: workload.DefaultApps()[0], Nodes: 4, RuntimeMin: 60, PeriodMin: 720}}
	ss := st.AsSet()
	verdicts := NewAuditor().AuditAll(ss, ks)
	if len(verdicts) != 1 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	if !verdicts[0].Degraded {
		t.Errorf("planted regression not flagged: %+v", verdicts[0])
	}
	// Kernels with no runs are skipped without error.
	ks = append(ks, Kernel{Name: "ak.ghost", App: workload.DefaultApps()[0]})
	if got := NewAuditor().AuditAll(ss, ks); len(got) != 1 {
		t.Errorf("ghost kernel should be skipped, got %d verdicts", len(got))
	}
}

func TestSeriesOrdering(t *testing.T) {
	st := store.New()
	for _, end := range []int64{300, 100, 200} {
		st.Add(store.JobRecord{
			JobID: end, Cluster: "r", User: KernelUser, App: "ak.x",
			Nodes: 1, Start: end - 50, End: end, Status: "COMPLETED",
			Samples: 2, FlopsGF: 1,
		})
	}
	runs := Series(st.AsSet(), "ak.x")
	if len(runs) != 3 || runs[0].End != 100 || runs[2].End != 300 {
		t.Errorf("series not ordered: %+v", runs)
	}
}
