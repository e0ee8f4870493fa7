// Command xdmod is the query/report CLI over an ingested store — the
// analyst-facing face of the reproduction. It loads the data directory
// cmd/ingest or cmd/simulate wrote (MANIFEST.supremm, its day shards
// and series.jsonl — the loader supremmd uses) and renders the
// stakeholder reports of §4.3.
//
//	xdmod -data ./data -report users          # Fig 2-style profiles
//	xdmod -data ./data -report apps           # Fig 3
//	xdmod -data ./data -report efficiency     # Fig 4/5
//	xdmod -data ./data -report persistence    # Table 1 / Fig 6
//	xdmod -data ./data -report system         # Figs 7-12 headlines
//	xdmod -data ./data -report failures       # completion failure profiles
//	xdmod -data ./data -report quality        # ingest data-completeness report
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/store"
)

func main() {
	var (
		data     = flag.String("data", "data", "data directory from cmd/ingest or cmd/simulate (MANIFEST.supremm + its shards; plus series.jsonl)")
		reportFl = flag.String("report", "system", "report: users|apps|efficiency|persistence|system|failures|trends|workload|forecast|waits|quality")
		queryFl  = flag.String("query", "", "custom report over the /api/v1/query keys, e.g. 'group=app metrics=cpu_idle,cpu_flops limit=10'")
		suiteFl  = flag.String("suite", "", "render a full stakeholder suite: user|developer|support|admin|manager|funding")
		topN     = flag.Int("n", 5, "how many users/apps to show")
	)
	flag.Parse()
	if *queryFl != "" {
		if err := runQuery(*data, *queryFl); err != nil {
			fmt.Fprintln(os.Stderr, "xdmod:", err)
			os.Exit(1)
		}
		return
	}
	if *suiteFl != "" {
		if err := runSuite(*data, *suiteFl); err != nil {
			fmt.Fprintln(os.Stderr, "xdmod:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*data, *reportFl, *topN); err != nil {
		fmt.Fprintln(os.Stderr, "xdmod:", err)
		os.Exit(1)
	}
}

// runSuite renders one stakeholder's full report set (§4.3), with the
// data-completeness section appended for support/admin when the data
// directory carries an ingest quality report.
func runSuite(dir, who string) error {
	r, err := serve.LoadRealm(dir)
	if err != nil {
		return err
	}
	q, err := serve.LoadQuality(dir)
	if err != nil {
		return err
	}
	return report.SuiteWithQuality(os.Stdout, report.Stakeholder(who), q, r)
}

// runQuery executes a custom report (the §4.3 "custom reports" path).
func runQuery(dir, spec string) error {
	r, err := serve.LoadRealm(dir)
	if err != nil {
		return err
	}
	q, err := serve.ParseQuery(spec)
	if err != nil {
		return err
	}
	res := r.RunQuery(q)
	headers := []string{"group", "jobs", "node-hours"}
	for _, m := range q.Metrics {
		headers = append(headers, string(m))
	}
	t := report.NewTable(fmt.Sprintf("custom report: %s", spec), headers...)
	for _, g := range res.Groups {
		row := []string{g.Key, fmt.Sprintf("%d", g.N), fmt.Sprintf("%.0f", g.NodeHours)}
		for _, m := range q.Metrics {
			row = append(row, fmt.Sprintf("%.4g", g.Mean[m]))
		}
		t.AddRow(row...)
	}
	return t.Render(os.Stdout)
}

func run(dir, what string, n int) error {
	r, err := serve.LoadRealm(dir)
	if err != nil {
		return err
	}
	out := os.Stdout
	switch what {
	case "users":
		return report.Fig2(out, r, n)
	case "apps":
		return report.Fig3(out, []*core.Realm{r}, core.MDCodes())
	case "efficiency":
		if err := report.Fig4(out, r); err != nil {
			return err
		}
		return report.Fig5(out, r)
	case "persistence":
		tab, err := r.Persistence(10)
		if err != nil {
			return err
		}
		if err := report.Table1(out, tab); err != nil {
			return err
		}
		return report.Fig6(out, r.Cluster, tab)
	case "system":
		for _, f := range []func() error{
			func() error { return report.Fig7(out, r) },
			func() error { return report.Fig8(out, r) },
			func() error { return report.Fig9(out, r) },
			func() error { return report.Fig10(out, r) },
			func() error { return report.Fig11(out, r) },
			func() error { return report.Fig12(out, r) },
		} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	case "trends":
		return report.Trends(out, r.Cluster, r.TrendReport())
	case "workload":
		return report.Characterization(out, r.Cluster, r.Characterize())
	case "forecast":
		return report.ForecastReport(out, r)
	case "waits":
		af, err := os.Open(filepath.Join(dir, store.AccountingFile))
		if err != nil {
			return fmt.Errorf("waits report needs %s in the data dir: %w", store.AccountingFile, err)
		}
		defer af.Close()
		acct, err := sched.ReadAcct(af)
		if err != nil {
			return err
		}
		return report.WaitReport(out, r.Cluster, sched.ComputeWaitStats(acct))
	case "quality":
		q, err := serve.LoadQuality(dir)
		if err == nil && q == nil {
			err = fs.ErrNotExist
		}
		if err != nil {
			return fmt.Errorf("quality report needs %s from cmd/ingest: %w", store.QualityFile, err)
		}
		return report.DataCompleteness(out, q)
	case "failures":
		return report.FailureProfiles(out, "job completion failure profiles by application", r)
	default:
		return fmt.Errorf("unknown report %q", what)
	}
}
