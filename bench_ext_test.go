// Extension benchmarks: the forecaster (the abstract's "limited
// predictive capability"), the sysstat/SAR baseline comparison (§1.2,
// §2), the scheduling-policy ablation including the paper's §4.3.4
// future-work complementary policy, application-kernel audits (XDMoD
// ref [2]) and the gzip volume accounting (§4.1's 60 GB -> 20 GB).
package supremm_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"supremm/internal/appkernels"
	"supremm/internal/cluster"
	"supremm/internal/ingest"
	"supremm/internal/procfs"
	"supremm/internal/sarbaseline"
	"supremm/internal/sched"
	"supremm/internal/sim"
	"supremm/internal/store"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// BenchmarkForecastSkill measures the persistence forecaster and
// reports its skill against climatology at the paper's offsets — the
// operational payoff of Table 1.
func BenchmarkForecastSkill(b *testing.B) {
	f := load(b)
	fc, err := f.ranger.NewForecaster("cpu_flops")
	if err != nil {
		b.Fatal(err)
	}
	var short, long float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s10, err := fc.Evaluate(10)
		if err != nil {
			b.Fatal(err)
		}
		s1000, err := fc.Evaluate(1000)
		if err != nil {
			b.Fatal(err)
		}
		short, long = s10.Skill, s1000.Skill
	}
	b.ReportMetric(short, "skill_10min")
	b.ReportMetric(long, "skill_1000min")
}

// BenchmarkBaselineSAR contrasts the stock sysstat/SAR stack with
// TACC_Stats on the same node-day of one job, its counters moved by the
// simulator's usage mapping: bytes written, streams/formats required,
// and — the paper's core argument — key-metric coverage.
func BenchmarkBaselineSAR(b *testing.B) {
	cc := cluster.RangerConfig()
	var sarBytes, taccBytes int
	for i := 0; i < b.N; i++ {
		snap := procfs.NewNodeSnapshot(cc, "node")
		snap.Time = 1306886400
		var cpuB, memB, netB bytes.Buffer
		sar := sarbaseline.NewSampler(&cpuB, &memB, &netB)
		var taccB bytes.Buffer
		mon := taccstats.NewMonitor(snap, func(day int) (io.WriteCloser, error) {
			return nopWriteCloser{&taccB}, nil
		})
		j := &workload.Job{
			ID: 1, User: &workload.User{Name: "u"}, App: workload.DefaultApps()[0],
			Nodes: 1, IdleMul: 1, FlopsMul: 1, MemMul: 1, IOMul: 1, NetMul: 1, Seed: 3,
		}
		bh := workload.NewBehavior(j, cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB)
		for s := 0; s < 144; s++ {
			sim.ApplyUsage(snap, bh.Step(10), 10)
			snap.Time += 600
			if err := sar.Sample(snap); err != nil {
				b.Fatal(err)
			}
			if err := mon.Sample(); err != nil {
				b.Fatal(err)
			}
		}
		mon.Close()
		sarBytes = cpuB.Len() + memB.Len() + netB.Len()
		taccBytes = int(taccB.Len())
	}
	b.ReportMetric(float64(sarBytes)/1e3, "sar_kb_per_node_day")
	b.ReportMetric(float64(taccBytes)/1e3, "tacc_kb_per_node_day")
	b.ReportMetric(float64(len(sarbaseline.CoveredMetrics())), "sar_key_metrics_covered")
	b.ReportMetric(float64(len(store.KeyMetrics())), "tacc_key_metrics_covered")
	b.ReportMetric(3, "sar_formats_required")
	b.ReportMetric(1, "tacc_formats_required")
}

// BenchmarkRawVolumeCompressed measures the gzip-rotated volume of a
// node-day under one job's load, driven by the simulator's usage
// mapping — the paper's 60 GB/month uncompressed vs 20 GB compressed
// (§4.1).
func BenchmarkRawVolumeCompressed(b *testing.B) {
	cc := cluster.RangerConfig()
	var plain, compressed int64
	for i := 0; i < b.N; i++ {
		write := func(rotate taccstats.RotateFunc) *countingWriter {
			snap := procfs.NewNodeSnapshot(cc, "node")
			snap.Time = 1306886400
			j := &workload.Job{
				ID: 1, User: &workload.User{Name: "u"}, App: workload.DefaultApps()[0],
				Nodes: 1, IdleMul: 1, FlopsMul: 1, MemMul: 1, IOMul: 1, NetMul: 1, Seed: 5,
			}
			bh := workload.NewBehavior(j, cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB)
			mon := taccstats.NewMonitor(snap, rotate)
			for s := 0; s < 144; s++ {
				sim.ApplyUsage(snap, bh.Step(10), 10)
				snap.Time += 600
				if err := mon.Sample(); err != nil {
					b.Fatal(err)
				}
			}
			mon.Close()
			return nil
		}
		pc := &countingWriter{}
		write(func(day int) (io.WriteCloser, error) { return pc, nil })
		ccw := &countingWriter{}
		write(taccstats.GzipRotate(func(day int) (io.WriteCloser, error) { return ccw, nil }))
		plain, compressed = pc.n, ccw.n
	}
	b.ReportMetric(float64(plain)/1e6, "plain_mb_per_node_day")
	b.ReportMetric(float64(compressed)/1e6, "gzip_mb_per_node_day")
	b.ReportMetric(float64(plain)/float64(compressed), "compression_ratio")
}

// BenchmarkAblationSchedPolicy compares the scheduling disciplines on
// identical offered load: strict FIFO, EASY backfill (production), and
// the paper's future-work complementary policy. Reported: realized
// utilization and mean queue wait per policy.
func BenchmarkAblationSchedPolicy(b *testing.B) {
	run := func(policy sched.Policy) (util, waitMin float64) {
		cc := cluster.RangerConfig().Scaled(48)
		cfg := sim.DefaultConfig(cc, 2013)
		cfg.DurationMin = 14 * 24 * 60
		cfg.Shutdowns = nil
		cfg.NodeMTBFHours = 0
		cfg.Policy = policy
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var busy float64
		for _, s := range res.Series {
			busy += float64(s.BusyNodes)
		}
		util = busy / float64(len(res.Series)) / 48
		waitMin = sched.ComputeWaitStats(res.Acct).MeanWaitMin
		return util, waitMin
	}
	var fifoU, easyU, compU, fifoW, easyW, compW float64
	for i := 0; i < b.N; i++ {
		fifoU, fifoW = run(sched.PolicyFIFO)
		easyU, easyW = run(sched.PolicyEASY)
		compU, compW = run(sched.PolicyComplementary)
	}
	b.ReportMetric(fifoU*100, "fifo_util_pct")
	b.ReportMetric(easyU*100, "easy_util_pct")
	b.ReportMetric(compU*100, "compl_util_pct")
	b.ReportMetric(fifoW, "fifo_wait_min")
	b.ReportMetric(easyW, "easy_wait_min")
	b.ReportMetric(compW, "compl_wait_min")
}

// BenchmarkAppKernels runs the audit suite end to end: inject kernels,
// simulate, extract series, audit. Reported: runs per kernel and the
// healthy-system verdict.
func BenchmarkAppKernels(b *testing.B) {
	var verdicts []appkernels.Verdict
	for i := 0; i < b.N; i++ {
		cc := cluster.RangerConfig().Scaled(24)
		cfg := sim.DefaultConfig(cc, 17)
		cfg.DurationMin = 14 * 24 * 60
		cfg.Shutdowns = nil
		cfg.NodeMTBFHours = 0
		cfg.Gen.HorizonMin = cfg.DurationMin
		ks := appkernels.DefaultKernels(workload.DefaultApps())
		production := workload.NewGenerator(cfg.Gen).Generate()
		cfg.Jobs = appkernels.Inject(production, ks, cfg.DurationMin, 1_000_000, 17)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		verdicts = appkernels.NewAuditor().AuditAll(res.Store.AsSet(), ks)
	}
	degraded := 0
	runs := 0
	for _, v := range verdicts {
		if v.Degraded {
			degraded++
		}
		runs += v.Runs
	}
	b.ReportMetric(float64(len(verdicts)), "kernels_audited")
	b.ReportMetric(float64(runs), "kernel_runs")
	b.ReportMetric(float64(degraded), "false_alarms")
}

// BenchmarkIngestRaw measures the ETL throughput of the raw path:
// parsing and joining one node-day of TACC_Stats text.
func BenchmarkIngestRaw(b *testing.B) {
	// Prepared once: a small raw-mode run.
	cc := cluster.RangerConfig().Scaled(8)
	cfg := sim.DefaultConfig(cc, 23)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.UtilizationTarget = 2
	cfg.RawDir = b.TempDir()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := ingestRaw(cfg.RawDir, res)
		if err != nil {
			b.Fatal(err)
		}
		if rr == 0 {
			b.Fatal("no records ingested")
		}
	}
	b.SetBytes(res.MonitorBytes)
}

func ingestRaw(dir string, res *sim.Result) (int, error) {
	rr, err := ingest.IngestRawOpts(dir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		return 0, err
	}
	return rr.Store.Len(), nil
}

// BenchmarkIngestParallel compares the sequential ETL against the
// per-host worker pool on the same raw tree (results are asserted
// byte-identical by TestIngestRawParallelMatchesSequential).
func BenchmarkIngestParallel(b *testing.B) {
	cc := cluster.RangerConfig().Scaled(16)
	cfg := sim.DefaultConfig(cc, 29)
	cfg.DurationMin = 2 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.UtilizationTarget = 2
	cfg.RawDir = b.TempDir()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(res.MonitorBytes)
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ingest.IngestRawOpts(cfg.RawDir, res.Acct, ingest.Options{Policy: ingest.Strict, Workers: runtime.GOMAXPROCS(0)}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(res.MonitorBytes)
	})
}

// BenchmarkStampedeSimulation exercises the §5 Stampede preset through
// the engine (the "will soon be deployed on Stampede" forward claim).
func BenchmarkStampedeSimulation(b *testing.B) {
	cc := cluster.StampedeConfig().Scaled(32)
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(cc, 37)
		cfg.DurationMin = 7 * 24 * 60
		cfg.Shutdowns = nil
		var err error
		res, err = sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Store.Len()), "jobs")
	var busy float64
	for _, s := range res.Series {
		busy += float64(s.BusyNodes)
	}
	b.ReportMetric(busy/float64(len(res.Series))/32*100, "util_pct")
}
