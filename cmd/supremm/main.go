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
	if err := run(*days, *nodes, *seed, *fig, *table, *corr, *anomalies, *advise, *svgDir, *htmlOut, *clusterFl); err != nil {
		fmt.Fprintln(os.Stderr, "supremm:", err)
		os.Exit(1)
	}
}

// realmWithEvents pairs a realm with the run's log events for ANCOR.
type realmWithEvents struct {
	realm *core.Realm
	res   *sim.Result
}

func run(days, nodes int, seed int64, fig, table int, corr, anomalies bool, advise, svgDir, htmlOut, clusterName string) error {
	// 0 selects nothing; any other value must name something the paper
	// has, checked before the simulation runs.
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

	var realms []realmWithEvents
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
		realms = append(realms, realmWithEvents{
			realm: core.NewRealm(cc, res.Store.AsSet(), res.Series),
			res:   res,
		})
	}

	out := os.Stdout
	all := fig == 0 && table == 0 && !corr && !anomalies && advise == ""

	coreRealms := make([]*core.Realm, len(realms))
	for i, re := range realms {
		coreRealms[i] = re.realm
	}

	if all || fig == 2 {
		if err := report.Fig2(out, coreRealms[0], 5); err != nil {
			return err
		}
	}
	if all || fig == 3 {
		if err := report.Fig3(out, coreRealms, core.MDCodes()); err != nil {
			return err
		}
	}
	for _, re := range realms {
		r := re.realm
		if all || fig == 4 {
			if err := report.Fig4(out, r); err != nil {
				return err
			}
		}
		if all || fig == 5 {
			if err := report.Fig5(out, r); err != nil {
				return err
			}
		}
		if all || table == 1 || fig == 6 {
			tab, err := r.Persistence(10)
			if err != nil {
				return err
			}
			if all || table == 1 {
				if _, err := fmt.Fprintf(out, "[%s]\n", r.Cluster); err != nil {
					return err
				}
				if err := report.Table1(out, tab); err != nil {
					return err
				}
			}
			if all || fig == 6 {
				if err := report.Fig6(out, r.Cluster, tab); err != nil {
					return err
				}
			}
		}
		if all || fig == 7 {
			if err := report.Fig7(out, r); err != nil {
				return err
			}
		}
		if all || fig == 8 {
			if err := report.Fig8(out, r); err != nil {
				return err
			}
		}
		if all || fig == 9 {
			if err := report.Fig9(out, r); err != nil {
				return err
			}
		}
		if all || fig == 10 {
			if err := report.Fig10(out, r); err != nil {
				return err
			}
		}
		if all || fig == 11 {
			if err := report.Fig11(out, r); err != nil {
				return err
			}
		}
		if all || fig == 12 {
			if err := report.Fig12(out, r); err != nil {
				return err
			}
		}
		if all || corr {
			if err := report.CorrelationReport(out, r); err != nil {
				return err
			}
		}
		if all || anomalies {
			if err := renderAnomalies(re); err != nil {
				return err
			}
		}
	}
	if all && len(coreRealms) > 1 {
		if err := renderComparison(out, coreRealms); err != nil {
			return err
		}
	}
	if advise != "" {
		if err := renderAdvice(out, advise, coreRealms); err != nil {
			return err
		}
	}
	if svgDir != "" {
		if err := os.MkdirAll(svgDir, 0o755); err != nil {
			return err
		}
		for _, r := range coreRealms {
			err := report.SVGFigures(r, func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(svgDir, name))
			})
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote vector figures to %s\n", svgDir)
	}
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err != nil {
			return err
		}
		if err := report.HTMLDashboard(f, nil, coreRealms...); err != nil {
			_ = f.Close() // render error wins
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote dashboard to %s\n", htmlOut)
	}
	return nil
}

// renderAdvice prints the §4.3.1 system-selection report for one app.
func renderAdvice(out *os.File, app string, realms []*core.Realm) error {
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
	if err := t.Render(out); err != nil {
		return err
	}
	var err error
	if choice.Best != "" {
		_, err = fmt.Fprintf(out, "recommendation: run %s on %s\n", app, choice.Best)
	} else {
		_, err = fmt.Fprintf(out, "not enough evidence to recommend a system for %s\n", app)
	}
	return err
}

// renderComparison prints the cross-system table for funding agencies
// (§4.3.6).
func renderComparison(out *os.File, realms []*core.Realm) error {
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
	return t.Render(out)
}

func renderAnomalies(re realmWithEvents) error {
	r := re.realm
	det := anomaly.NewDetector()
	found := det.Detect(r.Store, r.JobFilter(),
		[]store.Metric{store.MetricCPUIdle, store.MetricMemUsedMax, store.MetricScratchWrite})
	if err := report.Diagnoses(os.Stdout, r.Cluster, anomaly.Link(found, re.res.Events), 15); err != nil {
		return err
	}
	return report.FailureProfiles(os.Stdout, "job completion failure profile by application", r)
}
