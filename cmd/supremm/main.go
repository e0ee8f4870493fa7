// Command supremm runs the whole pipeline in one shot: it simulates the
// preset clusters, ingests the results, and regenerates every table and
// figure of the paper. It is the quickest way to see the reproduction
// end to end:
//
//	supremm -days 30 -nodes 128            # all figures, both clusters
//	supremm -fig 4 -cluster ranger         # a single figure
//	supremm -table 1                       # Table 1
//	supremm -corr                          # the sec 4.2 correlation report
//	supremm -anomalies                     # ANCOR-style diagnoses
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"supremm/internal/anomaly"
	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/sim"
	"supremm/internal/store"
)

func main() {
	var (
		days      = flag.Int("days", 30, "simulated days")
		nodes     = flag.Int("nodes", 128, "nodes per cluster (scaled presets)")
		seed      = flag.Int64("seed", 2013, "simulation seed")
		fig       = flag.Int("fig", 0, "render only this figure (2-12)")
		table     = flag.Int("table", 0, "render only this table (1)")
		corr      = flag.Bool("corr", false, "render the metric correlation report")
		anomalies = flag.Bool("anomalies", false, "render ANCOR-style anomaly diagnoses")
		advise    = flag.String("advise", "", "advise which cluster suits this application (e.g. gromacs)")
		svgDir    = flag.String("svg", "", "also write vector figures into this directory")
		htmlOut   = flag.String("html", "", "also write a self-contained HTML dashboard to this file")
		clusterFl = flag.String("cluster", "", "restrict to one cluster (ranger|lonestar4|stampede)")
	)
	flag.Parse()
	if err := run(os.Stdout, *days, *nodes, *seed, *fig, *table, *corr, *anomalies, *advise, *svgDir, *htmlOut, *clusterFl); err != nil {
		fmt.Fprintln(os.Stderr, "supremm:", err)
		os.Exit(1)
	}
}

// realmRun is one simulated cluster: its realm and the run's log
// events for ANCOR.
type realmRun struct {
	realm *core.Realm
	res   *sim.Result
}

// selection is what the flags ask for; all is set when they name
// nothing, which renders every artefact.
type selection struct {
	fig, table      int
	corr, anomalies bool
	all             bool
}

func figure(n int) func(selection) bool {
	return func(s selection) bool { return s.all || s.fig == n }
}

// perRealm is every artefact rendered once per cluster, in print order.
var perRealm = []struct {
	wanted func(selection) bool
	render func(*bytes.Buffer, *realmRun) error
}{
	{figure(4), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig4(b, rr.realm) }},
	{figure(5), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig5(b, rr.realm) }},
	{func(s selection) bool { return s.all || s.table == 1 }, func(b *bytes.Buffer, rr *realmRun) error {
		tab, err := rr.realm.Persistence()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "[%s]\n", rr.realm.Cluster)
		report.Table1(b, tab)
		return nil
	}},
	{figure(6), func(b *bytes.Buffer, rr *realmRun) error {
		tab, err := rr.realm.Persistence()
		if err != nil {
			return err
		}
		report.Fig6(b, rr.realm.Cluster, tab)
		return nil
	}},
	{figure(7), func(b *bytes.Buffer, rr *realmRun) error { report.Fig7(b, rr.realm); return nil }},
	{figure(8), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig8(b, rr.realm) }},
	{figure(9), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig9(b, rr.realm) }},
	{figure(10), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig10(b, rr.realm) }},
	{figure(11), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig11(b, rr.realm) }},
	{figure(12), func(b *bytes.Buffer, rr *realmRun) error { return report.Fig12(b, rr.realm) }},
	{func(s selection) bool { return s.all || s.corr }, func(b *bytes.Buffer, rr *realmRun) error {
		report.CorrelationReport(b, rr.realm)
		return nil
	}},
	{func(s selection) bool { return s.all || s.anomalies }, renderAnomalies},
}

// run simulates the clusters and writes the selected artefacts to w,
// each as soon as it is rendered — with what it rendered before a
// failure, then that failure.
func run(w io.Writer, days, nodes int, seed int64, fig, table int, corr, anomalies bool, advise, svgDir, htmlOut, clusterName string) error {
	// 0 selects nothing; any other value must name something the paper
	// has, checked before the simulation runs, as the length is.
	if days <= 0 {
		return fmt.Errorf("-days %d: the simulation needs at least 1 day", days)
	}
	if fig != 0 && (fig < 2 || fig > 12) {
		return fmt.Errorf("no figure %d: -fig takes 2-12", fig)
	}
	if table != 0 && table != 1 {
		return fmt.Errorf("no table %d: -table takes 1", table)
	}
	setups := []cluster.Config{
		cluster.RangerConfig().Scaled(nodes),
		cluster.Lonestar4Config().Scaled(nodes),
	}
	if clusterName != "" {
		cc, ok := cluster.Preset(clusterName)
		if !ok {
			return fmt.Errorf("unknown cluster %q", clusterName)
		}
		setups = []cluster.Config{cc.Scaled(nodes)}
	}

	var runs []*realmRun
	var realms []*core.Realm
	for _, cc := range setups {
		fmt.Fprintf(os.Stderr, "simulating %s: %d nodes, %d days...\n", cc.Name, cc.Nodes, days)
		cfg := sim.DefaultConfig(cc, seed)
		cfg.DurationMin = float64(days) * 24 * 60
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  %d jobs submitted, %d completed, %d log events\n",
			res.JobsSubmitted, res.JobsCompleted, len(res.Events))
		realm := core.NewRealm(cc, res.Store.AsSet(), res.Series)
		runs = append(runs, &realmRun{realm: realm, res: res})
		realms = append(realms, realm)
	}

	sel := selection{fig: fig, table: table, corr: corr, anomalies: anomalies,
		all: fig == 0 && table == 0 && !corr && !anomalies && advise == ""}
	var b bytes.Buffer
	flush := func(err error) error {
		_, werr := w.Write(b.Bytes())
		b.Reset()
		if err != nil {
			return err
		}
		return werr
	}
	if sel.all || fig == 2 {
		report.Fig2(&b, realms[0], 5)
	}
	if sel.all || fig == 3 {
		report.Fig3(&b, realms, core.MDCodes())
	}
	for _, rr := range runs {
		for _, a := range perRealm {
			if a.wanted(sel) {
				if err := flush(a.render(&b, rr)); err != nil {
					return err
				}
			}
		}
	}
	if sel.all && len(realms) > 1 {
		renderComparison(&b, realms)
	}
	if advise != "" {
		renderAdvice(&b, advise, realms)
	}
	if err := flush(nil); err != nil {
		return err
	}
	if svgDir != "" {
		if err := os.MkdirAll(svgDir, 0o755); err != nil {
			return err
		}
		for _, r := range realms {
			if err := report.SVGFigures(r, func(name string, svg []byte) error {
				return os.WriteFile(filepath.Join(svgDir, name), svg, 0o666)
			}); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote vector figures to %s\n", svgDir)
	}
	if htmlOut != "" {
		if err := report.HTMLDashboard(&b, nil, realms...); err != nil {
			return err
		}
		if err := os.WriteFile(htmlOut, b.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote dashboard to %s\n", htmlOut)
	}
	return nil
}

// renderAdvice renders the §4.3.1 system-selection report for one app.
func renderAdvice(b *bytes.Buffer, app string, realms []*core.Realm) {
	choice := core.AdviseSystem(app, realms...)
	t := report.NewTable(fmt.Sprintf("== which system suits %s (sec 4.3.1) ==", app),
		"cluster", "jobs", "node-hours", "rel. idle (x fleet)", "efficiency", "GF/s per core")
	for _, row := range choice.Rows {
		t.AddRow(row.Cluster, fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%.0f", row.NodeHours),
			fmt.Sprintf("%.2f", row.RelativeIdle),
			fmt.Sprintf("%.1f%%", row.Efficiency*100),
			fmt.Sprintf("%.2f", row.FlopsPerCoreGF))
	}
	t.Render(b)
	if choice.Best != "" {
		fmt.Fprintf(b, "recommendation: run %s on %s\n", app, choice.Best)
	} else {
		fmt.Fprintf(b, "not enough evidence to recommend a system for %s\n", app)
	}
}

// renderComparison renders the cross-system table for funding agencies
// (§4.3.6).
func renderComparison(b *bytes.Buffer, realms []*core.Realm) {
	cmp := core.CompareSystems(realms...)
	t := report.NewTable("== cross-system comparison (sec 4.3.6) ==",
		"cluster", "jobs", "node-hours", "efficiency", "mean TF", "% of peak", "mem used", "allocated")
	for _, row := range cmp.Rows {
		t.AddRow(row.Cluster, fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%.0f", row.NodeHours),
			fmt.Sprintf("%.1f%%", row.Efficiency*100),
			fmt.Sprintf("%.2f", row.MeanTFlops),
			fmt.Sprintf("%.1f%%", row.PeakShare*100),
			fmt.Sprintf("%.1f%%", row.MemFraction*100),
			fmt.Sprintf("%.1f%%", row.AllocatedFraction*100))
	}
	t.Render(b)
}

func renderAnomalies(b *bytes.Buffer, rr *realmRun) error {
	r := rr.realm
	det := anomaly.NewDetector()
	found := det.Detect(r.Store, r.JobFilter(),
		[]store.Metric{store.MetricCPUIdle, store.MetricMemUsedMax, store.MetricScratchWrite})
	report.Diagnoses(b, r.Cluster, anomaly.Link(found, rr.res.Events), 15)
	report.FailureProfiles(b, "job completion failure profile by application", r)
	return nil
}
