package report

import (
	"bytes"
	"fmt"
	"math"

	"supremm/internal/anomaly"
	"supremm/internal/appkernels"
	"supremm/internal/core"
	"supremm/internal/sched"
	"supremm/internal/store"
)

// Trends renders the §4.3.5 resource-manager trend report.
func Trends(b *bytes.Buffer, cluster string, trends []core.Trend) {
	t := NewTable(fmt.Sprintf("== resource use trends, %s ==", cluster),
		"metric", "slope/day", "rel/month", "p-value", "significant")
	for _, tr := range trends {
		sig := ""
		if tr.Significant {
			sig = "yes"
		}
		t.AddRow(tr.Metric,
			fmt.Sprintf("%+.4g", tr.SlopePerDay),
			fmt.Sprintf("%+.1f%%", tr.RelativePerMonth*100),
			fmt.Sprintf("%.3g", tr.P), sig)
	}
	t.Render(b)
}

// Characterization renders the workload-characterization report.
func Characterization(b *bytes.Buffer, cluster string, c core.Characterization) {
	fmt.Fprintf(b, "== workload characterization, %s ==\n", cluster)
	fmt.Fprintf(b, "jobs analyzed: %d   node-hours: %.0f\n", c.Jobs, c.TotalNodeHours)
	fmt.Fprintf(b, "runtime: median %.0f min, mean %.0f, node-hour-weighted mean %.0f (the paper's 549/446-min statistic)\n",
		c.Runtime.Median, c.Runtime.Mean, c.WeightedMeanRuntimeMin)

	t := NewTable("job-size mix", "size", "jobs", "node-hours", "share")
	for _, sz := range c.SizeBuckets {
		t.AddRow(sz.Label, fmt.Sprintf("%d", sz.Jobs),
			fmt.Sprintf("%.0f", sz.NodeHours), fmt.Sprintf("%.1f%%", sz.NodeHoursShare*100))
	}
	t.Render(b)

	s := NewTable("node-hours by parent science", "science", "share", "jobs")
	for _, row := range c.ScienceShare {
		s.AddRow(row.Key, fmt.Sprintf("%.1f%%", row.Share*100), fmt.Sprintf("%d", row.Jobs))
	}
	s.Render(b)

	a := NewTable("node-hours by application (top 10)", "app", "share", "jobs")
	for i, row := range c.AppShare {
		if i >= 10 {
			break
		}
		a.AddRow(row.Key, fmt.Sprintf("%.1f%%", row.Share*100), fmt.Sprintf("%d", row.Jobs))
	}
	a.Render(b)
}

// WaitReport renders queue-wait statistics.
func WaitReport(b *bytes.Buffer, cluster string, ws sched.WaitStats) {
	fmt.Fprintf(b, "== queue waits, %s (%d jobs) ==\n", cluster, ws.Jobs)
	t := NewTable("", "population", "mean wait (min)")
	t.AddRow("all", minutesOrDash(ws.MeanWaitMin))
	t.AddRow("median", minutesOrDash(ws.MedianWaitMin))
	t.AddRow("max", minutesOrDash(ws.MaxWaitMin))
	t.AddRow("1 node", minutesOrDash(ws.SmallMeanMin))
	t.AddRow("2-15 nodes", minutesOrDash(ws.MediumMeanMin))
	t.AddRow("16+ nodes", minutesOrDash(ws.LargeMeanMin))
	t.Render(b)
}

// minutesOrDash is one row's wait, or "-" for a population with no
// jobs (sched.WaitStats' NaN).
func minutesOrDash(m float64) string {
	if math.IsNaN(m) {
		return "-"
	}
	return fmt.Sprintf("%.1f", m)
}

// KernelAudit renders application-kernel verdicts.
func KernelAudit(b *bytes.Buffer, verdicts []appkernels.Verdict) {
	t := NewTable("== application kernel audit ==",
		"kernel", "runs", "baseline GF/s", "recent GF/s", "delta", "state")
	for _, v := range verdicts {
		state := "OK"
		if v.Degraded {
			state = "DEGRADED"
		}
		t.AddRow(v.Kernel, fmt.Sprintf("%d", v.Runs),
			fmt.Sprintf("%.1f", v.BaselineMean), fmt.Sprintf("%.1f", v.RecentMean),
			fmt.Sprintf("%+.1f%%", v.DeltaPct), state)
	}
	t.Render(b)
}

// ForecastReport renders forecaster skill at the Table 1 offsets plus
// the current scheduling hints.
func ForecastReport(b *bytes.Buffer, r *core.Realm) error {
	fmt.Fprintf(b, "== persistence forecasts, %s ==\n", r.Cluster)
	t := NewTable("forecast skill vs climatology (cpu_flops)",
		"offset (min)", "MAE", "naive MAE", "skill")
	f, err := r.NewForecaster("cpu_flops")
	if err != nil {
		return err
	}
	for _, off := range core.PersistenceOffsetsMin() {
		ev, err := f.Evaluate(float64(off))
		if err != nil {
			continue
		}
		t.AddRow(fmt.Sprint(off),
			fmt.Sprintf("%.4f", ev.MAE), fmt.Sprintf("%.4f", ev.NaiveMAE),
			fmt.Sprintf("%+.2f", ev.Skill))
	}
	t.Render(b)
	h := NewTable("scheduling hints (60 min ahead)",
		"resource", "current", "forecast", "typical", "headroom", "verdict")
	for _, metric := range []string{"io_scratch_write", "net_ib_tx"} {
		hint, err := r.Hint(metric, 60)
		if err != nil {
			continue
		}
		verdict := "hold back"
		if hint.Favorable {
			verdict = "launch now"
		}
		h.AddRow(hint.Metric,
			fmt.Sprintf("%.1f", hint.Current), fmt.Sprintf("%.1f", hint.ForecastMean),
			fmt.Sprintf("%.1f", hint.FleetMean), fmt.Sprintf("%+.0f%%", hint.Headroom*100), verdict)
	}
	h.Render(b)
	return nil
}

// Diagnoses renders ANCOR linkage results.
func Diagnoses(b *bytes.Buffer, cluster string, diags []anomaly.Diagnosis, limit int) {
	fmt.Fprintf(b, "== ANCOR diagnoses, %s (%d anomalous jobs) ==\n", cluster, len(diags))
	for i, d := range diags {
		if limit > 0 && i >= limit {
			fmt.Fprintf(b, "  ... %d more\n", len(diags)-limit)
			break
		}
		fmt.Fprintln(b, " ", d.String())
	}
}

// FailureProfiles renders the §4.3.3 job completion failure profile of
// every application in r under title: jobs, how each ended, and the
// failed share.
func FailureProfiles(b *bytes.Buffer, title string, r *core.Realm) {
	t := NewTable(title, "app", "jobs", "completed", "failed", "timeout", "node_fail", "failure%")
	for _, p := range anomaly.FailureProfiles(r.Store, store.ByApp, r.JobFilter()) {
		t.AddRow(p.Key, fmt.Sprintf("%d", p.Jobs), fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Failed), fmt.Sprintf("%d", p.Timeout),
			fmt.Sprintf("%d", p.NodeFail), fmt.Sprintf("%.1f", p.FailurePct))
	}
	t.Render(b)
}
