package report

import (
	"fmt"
	"io"

	"supremm/internal/anomaly"
	"supremm/internal/appkernels"
	"supremm/internal/core"
	"supremm/internal/sched"
	"supremm/internal/store"
)

// Trends renders the §4.3.5 resource-manager trend report.
func Trends(w io.Writer, cluster string, trends []core.Trend) error {
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
	return t.Render(w)
}

// Characterization renders the workload-characterization report.
func Characterization(w io.Writer, cluster string, c core.Characterization) error {
	ew := newErrWriter(w)
	ew.printf("== workload characterization, %s ==\n", cluster)
	ew.printf("jobs analyzed: %d   node-hours: %.0f\n", c.Jobs, c.TotalNodeHours)
	ew.printf("runtime: median %.0f min, mean %.0f, node-hour-weighted mean %.0f (the paper's 549/446-min statistic)\n",
		c.Runtime.Median, c.Runtime.Mean, c.WeightedMeanRuntimeMin)
	if ew.err != nil {
		return ew.err
	}

	t := NewTable("job-size mix", "size", "jobs", "node-hours", "share")
	for _, b := range c.SizeBuckets {
		t.AddRow(b.Label, fmt.Sprintf("%d", b.Jobs),
			fmt.Sprintf("%.0f", b.NodeHours), fmt.Sprintf("%.1f%%", b.NodeHoursShare*100))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	s := NewTable("node-hours by parent science", "science", "share", "jobs")
	for _, row := range c.ScienceShare {
		s.AddRow(row.Key, fmt.Sprintf("%.1f%%", row.Share*100), fmt.Sprintf("%d", row.Jobs))
	}
	if err := s.Render(w); err != nil {
		return err
	}

	a := NewTable("node-hours by application (top 10)", "app", "share", "jobs")
	for i, row := range c.AppShare {
		if i >= 10 {
			break
		}
		a.AddRow(row.Key, fmt.Sprintf("%.1f%%", row.Share*100), fmt.Sprintf("%d", row.Jobs))
	}
	return a.Render(w)
}

// WaitReport renders queue-wait statistics.
func WaitReport(w io.Writer, cluster string, ws sched.WaitStats) error {
	if _, err := fmt.Fprintf(w, "== queue waits, %s (%d jobs) ==\n", cluster, ws.Jobs); err != nil {
		return err
	}
	t := NewTable("", "population", "mean wait (min)")
	t.AddRow("all", fmt.Sprintf("%.1f", ws.MeanWaitMin))
	t.AddRow("median", fmt.Sprintf("%.1f", ws.MedianWaitMin))
	t.AddRow("max", fmt.Sprintf("%.1f", ws.MaxWaitMin))
	t.AddRow("1 node", fmt.Sprintf("%.1f", ws.SmallMeanMin))
	t.AddRow("2-15 nodes", fmt.Sprintf("%.1f", ws.MediumMeanMin))
	t.AddRow("16+ nodes", fmt.Sprintf("%.1f", ws.LargeMeanMin))
	return t.Render(w)
}

// KernelAudit renders application-kernel verdicts.
func KernelAudit(w io.Writer, verdicts []appkernels.Verdict) error {
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
	return t.Render(w)
}

// ForecastReport renders forecaster skill at the Table 1 offsets plus
// the current scheduling hints.
func ForecastReport(w io.Writer, r *core.Realm) error {
	if _, err := fmt.Fprintf(w, "== persistence forecasts, %s ==\n", r.Cluster); err != nil {
		return err
	}
	t := NewTable("forecast skill vs climatology (cpu_flops)",
		"offset (min)", "MAE", "naive MAE", "skill")
	f, err := r.NewForecaster("cpu_flops", 10)
	if err != nil {
		return err
	}
	for _, off := range core.PersistenceOffsetsMin() {
		ev, err := f.Evaluate(r.Series, float64(off))
		if err != nil {
			continue
		}
		t.AddRow(fmt.Sprint(off),
			fmt.Sprintf("%.4f", ev.MAE), fmt.Sprintf("%.4f", ev.NaiveMAE),
			fmt.Sprintf("%+.2f", ev.Skill))
	}
	if err := t.Render(w); err != nil {
		return err
	}
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
	return h.Render(w)
}

// Diagnoses renders ANCOR linkage results.
func Diagnoses(w io.Writer, cluster string, diags []anomaly.Diagnosis, limit int) error {
	ew := newErrWriter(w)
	ew.printf("== ANCOR diagnoses, %s (%d anomalous jobs) ==\n", cluster, len(diags))
	for i, d := range diags {
		if limit > 0 && i >= limit {
			ew.printf("  ... %d more\n", len(diags)-limit)
			break
		}
		ew.println(" ", d.String())
	}
	return ew.err
}

// FailureProfiles renders the §4.3.3 job completion failure profile of
// every application in r under title: jobs, how each ended, and the
// failed share.
func FailureProfiles(w io.Writer, title string, r *core.Realm) error {
	t := NewTable(title, "app", "jobs", "completed", "failed", "timeout", "node_fail", "failure%")
	for _, p := range anomaly.FailureProfiles(r.Store, store.ByApp, r.JobFilter()) {
		t.AddRow(p.Key, fmt.Sprintf("%d", p.Jobs), fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Failed), fmt.Sprintf("%d", p.Timeout),
			fmt.Sprintf("%d", p.NodeFail), fmt.Sprintf("%.1f", p.FailurePct))
	}
	return t.Render(w)
}
