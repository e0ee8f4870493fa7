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
	"bytes"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Stdout, *data, *reportFl, *queryFl, *suiteFl, *topN); err != nil {
		fmt.Fprintln(os.Stderr, "xdmod:", err)
		os.Exit(1)
	}
}

// run renders over the data directory the custom report spec names,
// else the suite named who, else the report named what, and writes it
// to w: what was rendered before a failure too, then the failure.
func run(w io.Writer, dir, what, spec, who string, n int) error {
	r, err := serve.LoadRealm(dir)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	switch {
	case spec != "":
		err = renderQuery(&b, r, spec)
	case who != "":
		err = renderSuite(&b, r, dir, who)
	default:
		err = renderReport(&b, r, dir, what, n)
	}
	if _, werr := w.Write(b.Bytes()); err == nil {
		err = werr
	}
	return err
}

// renderSuite renders one stakeholder's full report set (§4.3), with
// the data-completeness section appended for support/admin when the
// data directory carries an ingest quality report.
func renderSuite(b *bytes.Buffer, r *core.Realm, dir, who string) error {
	q, err := serve.LoadQuality(dir)
	if err != nil {
		return err
	}
	return report.SuiteWithQuality(b, report.Stakeholder(who), q, r)
}

// renderQuery renders a custom report (the §4.3 "custom reports" path).
func renderQuery(b *bytes.Buffer, r *core.Realm, spec string) error {
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
	t.Render(b)
	return nil
}

// renderReport renders the -report named what over r.
func renderReport(b *bytes.Buffer, r *core.Realm, dir, what string, n int) error {
	switch what {
	case "users":
		report.Fig2(b, r, n)
	case "apps":
		report.Fig3(b, []*core.Realm{r}, core.MDCodes())
	case "efficiency":
		if err := report.Fig4(b, r); err != nil {
			return err
		}
		return report.Fig5(b, r)
	case "persistence":
		tab, err := r.Persistence()
		if err != nil {
			return err
		}
		report.Table1(b, tab)
		report.Fig6(b, r.Cluster, tab)
	case "system":
		report.Fig7(b, r)
		for _, fig := range []func(*bytes.Buffer, *core.Realm) error{report.Fig8, report.Fig9, report.Fig10, report.Fig11, report.Fig12} {
			if err := fig(b, r); err != nil {
				return err
			}
		}
	case "trends":
		report.Trends(b, r.Cluster, r.TrendReport())
	case "workload":
		report.Characterization(b, r.Cluster, r.Characterize())
	case "forecast":
		return report.ForecastReport(b, r)
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
		report.WaitReport(b, r.Cluster, sched.ComputeWaitStats(acct))
	case "quality":
		q, err := serve.LoadQuality(dir)
		if err == nil && q == nil {
			err = fs.ErrNotExist
		}
		if err != nil {
			return fmt.Errorf("quality report needs %s from cmd/ingest: %w", store.QualityFile, err)
		}
		report.DataCompleteness(b, q)
	case "failures":
		report.FailureProfiles(b, "job completion failure profiles by application", r)
	default:
		return fmt.Errorf("unknown report %q", what)
	}
	return nil
}
