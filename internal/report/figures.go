package report

import (
	"fmt"
	"io"

	"supremm/internal/core"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// Fig2 renders the Fig 2 reproduction: normalized usage profiles of the
// n heaviest users.
func Fig2(w io.Writer, r *core.Realm, n int) error {
	if _, err := fmt.Fprintf(w, "== Figure 2: usage profiles of the %d heaviest %s users (fleet mean = 1.0) ==\n", n, r.Cluster); err != nil {
		return err
	}
	for _, p := range r.TopUserProfiles(n) {
		if err := Radar(w, p); err != nil {
			return err
		}
	}
	return nil
}

// Fig3 renders the Fig 3 reproduction: MD application profiles.
func Fig3(w io.Writer, realms []*core.Realm, apps []string) error {
	if _, err := fmt.Fprintln(w, "== Figure 3: resource profiles of the MD codes across clusters =="); err != nil {
		return err
	}
	for _, r := range realms {
		for _, p := range r.AppProfiles(apps) {
			if err := Radar(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig4 renders the Fig 4 reproduction: node-hours vs wasted node-hours
// per user with the fleet-efficiency reference line and the worst user
// marked.
func Fig4(w io.Writer, r *core.Realm) error {
	report := r.EfficiencyReport()
	if len(report) == 0 {
		return fmt.Errorf("report: no users for Fig 4")
	}
	xs := make([]float64, len(report))
	ys := make([]float64, len(report))
	markIdx := -1
	worst := core.WorstOf(report, 1, 50)
	for i, u := range report {
		xs[i] = u.NodeHours
		ys[i] = u.WastedNodeHours
		if len(worst) > 0 && u.User == worst[0].User {
			markIdx = i
		}
	}
	eff := r.FleetEfficiency()
	if _, err := fmt.Fprintf(w, "== Figure 4: %s node-hours vs wasted node-hours (fleet efficiency %.0f%%) ==\n",
		r.Cluster, eff*100); err != nil {
		return err
	}
	sc := &Scatter{
		Title:  fmt.Sprintf("each '+' is a user; 'O' marks the most idle heavy user; '-' is the %.0f%% efficiency line", eff*100),
		XLabel: "node-hours (log)", YLabel: "wasted node-hours (log)",
		LogX: true, LogY: true,
		Xs: xs, Ys: ys, MarkIdx: markIdx,
		RefLineSlope: 1 - eff,
	}
	if err := sc.Render(w); err != nil {
		return err
	}
	t := NewTable("top users by wasted node-hours",
		"user", "node-hours", "wasted", "idle%", "jobs")
	byWaste := append([]core.UserEfficiency(nil), report...)
	for i := 0; i < len(byWaste); i++ {
		for j := i + 1; j < len(byWaste); j++ {
			if byWaste[j].WastedNodeHours > byWaste[i].WastedNodeHours {
				byWaste[i], byWaste[j] = byWaste[j], byWaste[i]
			}
		}
	}
	for i, u := range byWaste {
		if i >= 10 {
			break
		}
		t.AddRow(u.User, fmt.Sprintf("%.0f", u.NodeHours),
			fmt.Sprintf("%.0f", u.WastedNodeHours),
			fmt.Sprintf("%.1f", u.IdleFrac*100), fmt.Sprintf("%d", u.Jobs))
	}
	return t.Render(w)
}

// Fig5 renders the Fig 5 reproduction: the profile of the worst idle
// user (the "circled" user of Fig 4).
func Fig5(w io.Writer, r *core.Realm) error {
	worst := r.WorstUsers(1, 50)
	if len(worst) == 0 {
		return fmt.Errorf("report: no worst user for Fig 5")
	}
	if _, err := fmt.Fprintf(w, "== Figure 5: profile of the circled user (%s, %.0f%% idle) ==\n",
		worst[0].User, worst[0].IdleFrac*100); err != nil {
		return err
	}
	return Radar(w, r.UserProfile(worst[0].User))
}

// Table1 renders the Table 1 reproduction: persistence ratios at the
// paper's offsets with per-metric fit R^2.
func Table1(w io.Writer, tab *core.PersistenceTable) error {
	t := NewTable("== Table 1: persistence ratios (offset-difference sd normalized; see DESIGN.md) ==",
		"offset(min)", "flops", "mem", "write", "ib_tx", "cpu_idle")
	cols := []string{"cpu_flops", "mem_used", "io_scratch_write", "net_ib_tx", "cpu_idle"}
	for i, off := range tab.OffsetsMin {
		row := []string{fmt.Sprintf("%d", off)}
		for _, m := range cols {
			row = append(row, fmt.Sprintf("%.3f", tab.Ratios[m][i]))
		}
		t.AddRow(row...)
	}
	fitRow := []string{"fit R^2"}
	for _, m := range cols {
		fitRow = append(fitRow, fmt.Sprintf("%.3f", tab.Fits[m].R2))
	}
	t.AddRow(fitRow...)
	return t.Render(w)
}

// Fig6 renders the Fig 6 reproduction: the combined logarithmic
// persistence fit with the significance statistics the paper quotes.
func Fig6(w io.Writer, cluster string, tab *core.PersistenceTable) error {
	f := tab.Combined
	ew := newErrWriter(w)
	ew.printf("== Figure 6: combined persistence fit, %s ==\n", cluster)
	ew.printf("  ratio = %.3f + %.3f*ln(offset_min)\n", f.Intercept, f.Slope)
	ew.printf("  intercept %.2f(%.0f) p=%.2g   slope %.2f(%.0f) p=%.2g   R^2=%.2f\n",
		f.Intercept, f.InterceptSE*100, f.InterceptP,
		f.Slope, f.SlopeSE*100, f.SlopeP, f.R2)
	ew.printf("  prediction horizon (ratio=0.9): %.0f min\n", tab.PredictionHorizonMin(0.9))
	return ew.err
}

// Fig7 renders the three Fig 7 sample reports.
func Fig7(w io.Writer, r *core.Realm) error {
	if _, err := fmt.Fprintf(w, "== Figure 7: system reports, %s ==\n", r.Cluster); err != nil {
		return err
	}
	a := NewTable("(a) average memory per core by parent science",
		"science", "mem/core GB", "node-hours", "jobs")
	for _, row := range r.MemoryByScience() {
		a.AddRow(row.Science, fmt.Sprintf("%.2f", row.MemPerCoreGB),
			fmt.Sprintf("%.0f", row.NodeHours), fmt.Sprintf("%d", row.Jobs))
	}
	if err := a.Render(w); err != nil {
		return err
	}
	h := r.CPUHoursReport()
	b := NewTable("(b) CPU hours split", "state", "core-hours", "share")
	for _, row := range []struct {
		name string
		v    float64
	}{{"user", h.UserCoreHours}, {"system", h.SysCoreHours}, {"idle", h.IdleCoreHours}} {
		b.AddRow(row.name, fmt.Sprintf("%.0f", row.v), fmt.Sprintf("%.1f%%", row.v/h.TotalCoreHours*100))
	}
	if err := b.Render(w); err != nil {
		return err
	}
	c := NewTable("(c) Lustre traffic by mount", "mount", "mean MB/s", "peak MB/s")
	for _, row := range r.LustreByMount() {
		c.AddRow(row.Mount, fmt.Sprintf("%.1f", row.MeanMBps), fmt.Sprintf("%.1f", row.PeakMBps))
	}
	return c.Render(w)
}

// Fig8 renders the active-nodes time series.
func Fig8(w io.Writer, r *core.Realm) error {
	a := r.ActiveNodesReport()
	if _, err := fmt.Fprintf(w, "== Figure 8: %s active nodes (mean %.1f, min %.0f, %d zero samples of %d) ==\n",
		r.Cluster, a.MeanActive, a.MinActive, a.ZeroSamples, a.TotalSamples); err != nil {
		return err
	}
	return TimeSeries(w, "active nodes per day", r.SeriesDaily("active_nodes"), 10)
}

// Fig9 renders the cluster FLOPS time series with the peak comparison.
func Fig9(w io.Writer, r *core.Realm) error {
	f := r.FlopsReport()
	ew := newErrWriter(w)
	ew.printf("== Figure 9: %s delivered SSE FLOPS (mean %.2f TF, peak %.2f TF, machine peak %.0f TF) ==\n",
		r.Cluster, f.MeanTFlops, f.PeakTFlops, f.MachinePeakTF)
	ew.printf("  mean is %.1f%% of peak; max observed is %.1f%% of peak\n",
		f.MeanFraction*100, f.PeakFraction*100)
	if ew.err != nil {
		return ew.err
	}
	return TimeSeries(w, "cluster TFLOP/s per day", r.SeriesDaily("total_tflops"), 10)
}

// Fig10 renders the FLOPS kernel density.
func Fig10(w io.Writer, r *core.Realm) error {
	kde, curve := r.FlopsDistribution(128)
	if _, err := fmt.Fprintf(w, "== Figure 10: %s FLOPS distribution (kernel density, mode %.2f TF) ==\n",
		r.Cluster, kde.Mode()); err != nil {
		return err
	}
	return Density(w, "cluster TFLOP/s density", "TFLOP/s",
		map[string][]stats.CurvePoint{"flops": curve}, 64, 12)
}

// Fig11 renders the memory-per-node time series.
func Fig11(w io.Writer, r *core.Realm) error {
	m := r.MemoryReport()
	if _, err := fmt.Fprintf(w, "== Figure 11: %s memory per node (mean %.1f GB of %.0f GB, peak %.1f GB) ==\n",
		r.Cluster, m.MeanGB, m.CapacityGB, m.PeakGB); err != nil {
		return err
	}
	return TimeSeries(w, "mean GB per node per day", r.SeriesDaily("mem_used"), 10)
}

// Fig12 renders the memory kernel densities (mem_used and mem_used_max).
func Fig12(w io.Writer, r *core.Realm) error {
	used, maxCurve := r.MemoryDistribution(128)
	if used == nil {
		return fmt.Errorf("report: no jobs for Fig 12")
	}
	m := r.MemoryReport()
	if _, err := fmt.Fprintf(w, "== Figure 12: %s job memory distributions (job-max mean %.1f GB of %.0f GB) ==\n",
		r.Cluster, m.JobMaxMeanGB, m.CapacityGB); err != nil {
		return err
	}
	return Density(w, "per-job memory density", "GB per node",
		map[string][]stats.CurvePoint{"mem_used": used, "mem_used_max": maxCurve}, 64, 12)
}

// CorrelationReport renders the §4.2 metric-selection evidence.
func CorrelationReport(w io.Writer, r *core.Realm) error {
	matrix := r.CorrelationMatrix(store.AllMetrics())
	if _, err := fmt.Fprintf(w, "== Metric correlation (sec 4.2), %s ==\n", r.Cluster); err != nil {
		return err
	}
	t := NewTable("strongly correlated pairs (|rho| >= 0.9)", "metric A", "metric B", "rho")
	for _, p := range core.CorrelatedPairs(matrix, 0.9) {
		t.AddRow(string(p.A), string(p.B), fmt.Sprintf("%+.3f", core.Correlation(matrix, p.A, p.B)))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	picked := core.SelectIndependent(matrix,
		append(store.KeyMetrics(), store.MetricCPUUser, store.MetricIBRx, store.MetricCPUSys, store.MetricRead, store.MetricLnetTx), 0.98)
	_, err := fmt.Fprintf(w, "independent set (threshold 0.98): %v\n", picked)
	return err
}
