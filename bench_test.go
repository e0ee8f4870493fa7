// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the §3 monitor-cost benchmarks and the ablations
// called out in DESIGN.md §6. Each figure benchmark measures the cost of
// regenerating that figure's analysis over a fixed simulated dataset and
// reports the figure's headline quantities via b.ReportMetric, so a
// `go test -bench=.` run records both performance and the reproduced
// shapes (collected into EXPERIMENTS.md).
package supremm_test

import (
	"bytes"
	"io"
	"math"
	"sync"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/procfs"
	"supremm/internal/report"
	"supremm/internal/sim"
	"supremm/internal/stats"
	"supremm/internal/store"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// fixture holds the shared simulated datasets: a Ranger-like and a
// Lonestar4-like realm (128 nodes, 30 days, 10-minute sampling).
type fixture struct {
	ranger *core.Realm
	ls4    *core.Realm
	res    *sim.Result // the Ranger run's full result (events etc.)
}

var (
	fixOnce sync.Once
	fix     fixture
)

func load(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		build := func(cc cluster.Config) (*core.Realm, *sim.Result) {
			cfg := sim.DefaultConfig(cc, 2013)
			cfg.DurationMin = 30 * 24 * 60
			res, err := sim.Run(cfg)
			if err != nil {
				panic(err)
			}
			return core.NewRealm(cc, res.Store.AsSet(), res.Series), res
		}
		var rres *sim.Result
		fix.ranger, rres = build(cluster.RangerConfig().Scaled(128))
		fix.ls4, _ = build(cluster.Lonestar4Config().Scaled(128))
		fix.res = rres
	})
	return &fix
}

// BenchmarkFig2UserProfiles regenerates Fig 2: normalized 8-metric
// profiles of the five heaviest users.
func BenchmarkFig2UserProfiles(b *testing.B) {
	f := load(b)
	var profiles []core.Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiles = f.ranger.TopUserProfiles(5)
	}
	b.StopTimer()
	// Headline: inter-user variability (max pairwise profile distance).
	var dmax float64
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			dmax = math.Max(dmax, core.ProfileDistance(profiles[i], profiles[j]))
		}
	}
	b.ReportMetric(dmax, "profile_variability")
	b.ReportMetric(float64(len(profiles)), "users")
}

// BenchmarkFig3AppProfiles regenerates Fig 3: the MD codes across both
// clusters. Headlines: AMBER's idle relative to NAMD, and the
// cross-cluster distance gap between NAMD and GROMACS.
func BenchmarkFig3AppProfiles(b *testing.B) {
	f := load(b)
	apps := []string{"namd", "amber", "gromacs"}
	var rp, lp []core.Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp = f.ranger.AppProfiles(apps)
		lp = f.ls4.AppProfiles(apps)
	}
	b.StopTimer()
	amberOverNamd := rp[1].Normalized[store.MetricCPUIdle] / rp[0].Normalized[store.MetricCPUIdle]
	b.ReportMetric(amberOverNamd, "amber_idle_over_namd")
	b.ReportMetric(core.ProfileDistance(rp[0], lp[0]), "namd_xcluster_dist")
	b.ReportMetric(core.ProfileDistance(rp[2], lp[2]), "gromacs_xcluster_dist")
}

// BenchmarkFig4Efficiency regenerates Fig 4: per-user node-hours vs
// wasted node-hours. Headlines: fleet efficiency per cluster (paper:
// 90% Ranger, 85% Lonestar4) and the worst heavy user's idle fraction
// (paper: 87-89%).
func BenchmarkFig4Efficiency(b *testing.B) {
	f := load(b)
	var report []core.UserEfficiency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report = f.ranger.EfficiencyReport()
	}
	b.StopTimer()
	b.ReportMetric(f.ranger.FleetEfficiency()*100, "ranger_efficiency_pct")
	b.ReportMetric(f.ls4.FleetEfficiency()*100, "ls4_efficiency_pct")
	if worst := f.ranger.WorstUsers(1, 50); len(worst) > 0 {
		b.ReportMetric(worst[0].IdleFrac*100, "worst_user_idle_pct")
	}
	b.ReportMetric(float64(len(report)), "users")
}

// BenchmarkFig5AnomalousUsers regenerates Fig 5: the circled user's
// profile. Headline: their normalized cpu_idle (paper: 8x the average
// Ranger user) and the largest other axis (paper: normal usage).
func BenchmarkFig5AnomalousUsers(b *testing.B) {
	f := load(b)
	var p core.Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := f.ranger.WorstUsers(1, 50)
		p = f.ranger.UserProfile(worst[0].User)
	}
	b.StopTimer()
	b.ReportMetric(p.Normalized[store.MetricCPUIdle], "idle_x_fleet")
	other := 0.0
	for m, v := range p.Normalized {
		if m != store.MetricCPUIdle && v > other {
			other = v
		}
	}
	b.ReportMetric(other, "max_other_axis_x_fleet")
}

// BenchmarkTable1Persistence regenerates Table 1. Headlines: the
// 10-minute and 1000-minute ratios of cpu_flops (paper: 0.123 and
// 0.889) and the write column's 10-minute ratio (paper: 0.311, the
// least persistent metric).
func BenchmarkTable1Persistence(b *testing.B) {
	f := load(b)
	var tab *core.PersistenceTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = f.ranger.Persistence()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(tab.Ratios["cpu_flops"][0], "flops_ratio_10min")
	b.ReportMetric(tab.Ratios["cpu_flops"][4], "flops_ratio_1000min")
	b.ReportMetric(tab.Ratios["io_scratch_write"][0], "write_ratio_10min")
	b.ReportMetric(tab.Fits["cpu_flops"].R2, "flops_fit_r2")
}

// BenchmarkFig6PersistenceFit regenerates Fig 6: the combined log fit.
// Headlines: slope, intercept, R^2 (paper Ranger: 0.36, -0.17, 0.87;
// Lonestar4: 0.42, -0.28, 0.93) and the prediction horizons.
func BenchmarkFig6PersistenceFit(b *testing.B) {
	f := load(b)
	var rt, lt *core.PersistenceTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, _ = f.ranger.Persistence()
		lt, _ = f.ls4.Persistence()
	}
	b.StopTimer()
	b.ReportMetric(rt.Combined.Slope, "ranger_slope")
	b.ReportMetric(rt.Combined.Intercept, "ranger_intercept")
	b.ReportMetric(rt.Combined.R2, "ranger_r2")
	b.ReportMetric(lt.Combined.Slope, "ls4_slope")
	b.ReportMetric(lt.Combined.R2, "ls4_r2")
	b.ReportMetric(rt.PredictionHorizonMin(0.9), "ranger_horizon_min")
	b.ReportMetric(lt.PredictionHorizonMin(0.9), "ls4_horizon_min")
}

// BenchmarkFig7SystemReports regenerates the three Fig 7 reports.
func BenchmarkFig7SystemReports(b *testing.B) {
	f := load(b)
	var sciences []core.ScienceMemory
	var hours core.CPUHours
	var lustre []core.LustreMountReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sciences = f.ranger.MemoryByScience()
		hours = f.ranger.CPUHoursReport()
		lustre = f.ranger.LustreByMount()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sciences)), "science_rows")
	b.ReportMetric(hours.IdleCoreHours/hours.TotalCoreHours*100, "idle_share_pct")
	b.ReportMetric(lustre[0].MeanMBps, "scratch_mean_mbps")
}

// BenchmarkFig8ActiveNodes regenerates Fig 8. Headlines: zero-sample
// count (shutdown dips) and mean active nodes.
func BenchmarkFig8ActiveNodes(b *testing.B) {
	f := load(b)
	var a core.ActiveNodesSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = f.ranger.ActiveNodesReport()
	}
	b.StopTimer()
	b.ReportMetric(a.MeanActive, "mean_active_nodes")
	b.ReportMetric(float64(a.ZeroSamples), "outage_samples")
}

// BenchmarkFig9Flops regenerates Fig 9. Headlines: delivered mean and
// peak as fractions of machine peak (paper: <20/579 mean, <50/579 max).
func BenchmarkFig9Flops(b *testing.B) {
	f := load(b)
	var s core.FlopsSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = f.ranger.FlopsReport()
	}
	b.StopTimer()
	b.ReportMetric(s.MeanFraction*100, "mean_pct_of_peak")
	b.ReportMetric(s.PeakFraction*100, "max_pct_of_peak")
}

// BenchmarkFig10FlopsKDE regenerates Fig 10: the FLOPS kernel density.
// Headline: the mode as a fraction of machine peak.
func BenchmarkFig10FlopsKDE(b *testing.B) {
	f := load(b)
	var kde *stats.KDE
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kde, _ = f.ranger.FlopsDistribution(512)
	}
	b.StopTimer()
	b.ReportMetric(kde.Mode()/f.ranger.PeakTFlops*100, "mode_pct_of_peak")
}

// BenchmarkFig11Memory regenerates Fig 11. Headlines: mean memory per
// node as a fraction of capacity on both clusters (paper: <10/32 GB on
// Ranger, ~15/24 GB on Lonestar4).
func BenchmarkFig11Memory(b *testing.B) {
	f := load(b)
	var rm, lm core.MemorySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm = f.ranger.MemoryReport()
		lm = f.ls4.MemoryReport()
	}
	b.StopTimer()
	b.ReportMetric(rm.MeanFraction*100, "ranger_mem_pct")
	b.ReportMetric(lm.MeanFraction*100, "ls4_mem_pct")
}

// BenchmarkFig12MemoryKDE regenerates Fig 12: the mem_used and
// mem_used_max densities. Headline: the job-max mean as a fraction of
// capacity on both clusters (paper: ~50% on Ranger, near capacity on
// Lonestar4).
func BenchmarkFig12MemoryKDE(b *testing.B) {
	f := load(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ranger.MemoryDistribution(512)
	}
	b.StopTimer()
	rm, lm := f.ranger.MemoryReport(), f.ls4.MemoryReport()
	b.ReportMetric(rm.JobMaxMeanGB/rm.CapacityGB*100, "ranger_jobmax_pct")
	b.ReportMetric(lm.JobMaxMeanGB/lm.CapacityGB*100, "ls4_jobmax_pct")
}

// BenchmarkMetricCorrelation regenerates the §4.2 correlation analysis
// behind the eight-metric selection. Headlines: the two motivating
// correlations the paper quotes.
func BenchmarkMetricCorrelation(b *testing.B) {
	f := load(b)
	var m map[core.MetricPair]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = f.ranger.CorrelationMatrix(store.AllMetrics())
	}
	b.StopTimer()
	b.ReportMetric(core.Correlation(m, store.MetricCPUUser, store.MetricCPUIdle), "corr_user_idle")
	b.ReportMetric(core.Correlation(m, store.MetricIBRx, store.MetricIBTx), "corr_ibrx_ibtx")
	picked := core.SelectIndependent(m, append(store.KeyMetrics(),
		store.MetricCPUUser, store.MetricIBRx, store.MetricCPUSys,
		store.MetricRead, store.MetricLnetTx), 0.98)
	b.ReportMetric(float64(len(picked)), "independent_set_size")
}

// BenchmarkCollectOverhead measures the §3 monitor cost: the time to
// take one full sample of a node (all collectors, all devices). The
// paper quotes ~0.1% overhead at a 10-minute cadence; the reported
// overhead_ppm metric is sample-time / 600 s.
func BenchmarkCollectOverhead(b *testing.B) {
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, "bench-node")
	snap.Time = 1306886400
	mon := taccstats.NewMonitor(snap, func(day int) (io.WriteCloser, error) {
		return nopWriteCloser{io.Discard}, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Time += 600
		if err := mon.Sample(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perSampleSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perSampleSec/600*1e6, "overhead_ppm_of_interval")
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// BenchmarkRawVolume measures the §4.1 data volume: bytes per node per
// day of raw output (paper: ~0.5 MB/node/day, 60 GB/month for 3936
// nodes uncompressed).
func BenchmarkRawVolume(b *testing.B) {
	cc := cluster.RangerConfig()
	var bytesPerDay float64
	for i := 0; i < b.N; i++ {
		snap := procfs.NewNodeSnapshot(cc, "bench-node")
		snap.Time = 1306886400
		counter := &countingWriter{}
		mon := taccstats.NewMonitor(snap, func(day int) (io.WriteCloser, error) {
			return counter, nil
		})
		for s := 0; s < 144; s++ { // one day at 10-minute cadence
			snap.Time += 600
			if err := mon.Sample(); err != nil {
				b.Fatal(err)
			}
		}
		mon.Close()
		bytesPerDay = float64(counter.n)
	}
	b.ReportMetric(bytesPerDay/1e6, "mb_per_node_day")
	b.ReportMetric(bytesPerDay*3936*30/1e9, "gb_per_month_full_ranger")
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (c *countingWriter) Close() error { return nil }

// BenchmarkRenderAllFigures measures the full report-rendering path for
// every figure (the cmd/supremm hot path).
func BenchmarkRenderAllFigures(b *testing.B) {
	f := load(b)
	var out bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := f.ranger.Persistence()
		if err != nil {
			b.Fatal(err)
		}
		out.Reset()
		report.Fig2(&out, f.ranger, 5)
		if err := report.Fig4(&out, f.ranger); err != nil {
			b.Fatal(err)
		}
		report.Table1(&out, tab)
		report.Fig7(&out, f.ranger)
		if err := report.Fig10(&out, f.ranger); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// ablationSeries runs a small simulation with modified app dynamics and
// returns its system series.
func ablationSeries(b *testing.B, mutate func(*workload.App)) []store.SystemSample {
	b.Helper()
	cc := cluster.RangerConfig().Scaled(48)
	apps := workload.DefaultApps()
	for _, a := range apps {
		mutate(a)
	}
	gen := workload.DefaultGenConfig(cc, 2013)
	gen.Apps = apps
	cfg := sim.DefaultConfig(cc, 2013)
	cfg.DurationMin = 21 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen = gen
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Series
}

// BenchmarkAblationWhiteNoise removes the AR(1) temporal correlation
// from every app (theta -> 0 keeps the noise but kills its memory).
// Expectation: short-offset persistence ratios rise sharply toward the
// decorrelated limit — the paper's Table 1 cannot be reproduced without
// within-job temporal correlation.
func BenchmarkAblationWhiteNoise(b *testing.B) {
	var base, ablated *core.PersistenceTable
	for i := 0; i < b.N; i++ {
		baseSeries := ablationSeries(b, func(a *workload.App) {})
		whiteSeries := ablationSeries(b, func(a *workload.App) { a.Dyn.Theta = 0.1 })
		base, _ = core.PersistenceFromSeries(baseSeries)
		ablated, _ = core.PersistenceFromSeries(whiteSeries)
	}
	b.ReportMetric(base.Ratios["cpu_flops"][0], "flops_ratio10_base")
	b.ReportMetric(ablated.Ratios["cpu_flops"][0], "flops_ratio10_whitenoise")
}

// BenchmarkAblationSteadyIO removes IO burstiness (checkpoint dumps
// become a constant trickle). Expectation: io_scratch_write loses its
// place as the least persistent metric, collapsing Table 1's ordering.
func BenchmarkAblationSteadyIO(b *testing.B) {
	var base, ablated *core.PersistenceTable
	for i := 0; i < b.N; i++ {
		baseSeries := ablationSeries(b, func(a *workload.App) {})
		steadySeries := ablationSeries(b, func(a *workload.App) {
			a.Dyn.IOBurst = workload.BurstSpec{}
		})
		base, _ = core.PersistenceFromSeries(baseSeries)
		ablated, _ = core.PersistenceFromSeries(steadySeries)
	}
	b.ReportMetric(base.Ratios["io_scratch_write"][0], "write_ratio10_bursty")
	b.ReportMetric(ablated.Ratios["io_scratch_write"][0], "write_ratio10_steady")
}

// BenchmarkAblationUnweighted compares node-hour-weighted fleet means
// (the paper's §4.1 weighting) against plain per-job means.
// Expectation: the two disagree visibly, because big long jobs differ
// from the typical small job.
func BenchmarkAblationUnweighted(b *testing.B) {
	f := load(b)
	var agg store.Agg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg = f.ranger.Store.Aggregate(store.MetricCPUIdle, f.ranger.JobFilter())
	}
	b.StopTimer()
	b.ReportMetric(agg.Mean*100, "weighted_idle_pct")
	b.ReportMetric(agg.UnweightedMean*100, "unweighted_idle_pct")
}

// BenchmarkStoreColumnarVsRows compares the columnar aggregation scan
// against a row-materializing scan over the same records.
func BenchmarkStoreColumnarVsRows(b *testing.B) {
	f := load(b)
	st := f.ranger.Store
	filter := f.ranger.JobFilter()
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Aggregate(store.MetricCPUIdle, filter)
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sw, swx float64
			for _, rec := range st.Scan(filter).Records() {
				w := rec.NodeHours()
				sw += w
				swx += w * rec.CPUIdleFrac
			}
			if sw > 0 {
				_ = swx / sw
			}
		}
	})
}

// BenchmarkSimulate measures the end-to-end simulation throughput the
// whole harness rests on (job-steps per second).
func BenchmarkSimulate(b *testing.B) {
	cc := cluster.RangerConfig().Scaled(32)
	b.ResetTimer()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(cc, int64(i))
		cfg.DurationMin = 7 * 24 * 60
		cfg.Shutdowns = nil
		var err error
		res, err = sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Store.Len()), "jobs")
}
