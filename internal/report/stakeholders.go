package report

import (
	"bytes"
	"fmt"
	"strings"

	"supremm/internal/anomaly"
	"supremm/internal/core"
	"supremm/internal/ingest"
	"supremm/internal/store"
)

// Stakeholder identifies one of the six §4.3 stakeholder classes.
type Stakeholder string

// The paper's stakeholder classes, §4.3.1-§4.3.6.
const (
	StakeholderUser      Stakeholder = "user"
	StakeholderDeveloper Stakeholder = "developer"
	StakeholderSupport   Stakeholder = "support"
	StakeholderAdmin     Stakeholder = "admin"
	StakeholderManager   Stakeholder = "manager"
	StakeholderFunding   Stakeholder = "funding"
)

// Stakeholders lists the classes in paper order.
func Stakeholders() []Stakeholder {
	return []Stakeholder{
		StakeholderUser, StakeholderDeveloper, StakeholderSupport,
		StakeholderAdmin, StakeholderManager, StakeholderFunding,
	}
}

// SuiteWithQuality renders the named stakeholder's report set into b,
// assembling the §4.3 reports that section assigns to the class. Realms
// beyond the first enable the cross-system pieces (Fig 3, advice,
// comparison); a single realm renders the single-system subset. The
// classes that operate the pipeline — support staff (§4.3.3, triaging
// "where did my job's data go") and admins (§4.3.4, judging whether the
// archive is trustworthy) — also get the data-completeness view of q;
// a nil q omits it, so callers without a quality.json lose nothing. On
// an error b keeps the sections rendered before it.
func SuiteWithQuality(b *bytes.Buffer, who Stakeholder, q *ingest.DataQuality, realms ...*core.Realm) error {
	if len(realms) == 0 {
		return fmt.Errorf("report: suite needs at least one realm")
	}
	r := realms[0]
	head := func(title string) {
		fmt.Fprintf(b, "\n######## %s suite: %s ########\n", strings.ToUpper(string(who)), title)
	}
	switch who {
	case StakeholderUser:
		// §4.3.1: resource use profile, comparative use, anomalous
		// patterns, system choice.
		head("usage profiles (Fig 2)")
		Fig2(b, r, 3)
		head("anomalous resource use")
		for i, p := range r.AnomalousUsers(store.MetricCPUIdle, 3, 50) {
			if i >= 2 {
				break
			}
			Radar(b, p)
		}
		if len(realms) > 1 {
			head("which system suits the top codes (Fig 3 reading)")
			for _, app := range core.MDCodes() {
				if choice := core.AdviseSystem(app, realms...); choice.Best != "" {
					fmt.Fprintf(b, "  %-10s -> %s\n", app, choice.Best)
				}
			}
		}
	case StakeholderDeveloper:
		// §4.3.2: app profiles, comparative profiles, variability.
		head("application profiles (Fig 3)")
		Fig3(b, realms, core.MDCodes())
	case StakeholderSupport:
		// §4.3.3: inefficient users, abnormal terminations.
		head("wasted node-hours (Fig 4)")
		if err := Fig4(b, r); err != nil {
			return err
		}
		head("the circled user (Fig 5)")
		if err := Fig5(b, r); err != nil {
			return err
		}
		head("job completion failure profiles")
		t := NewTable("", "app", "jobs", "failure%")
		for _, p := range anomaly.FailureProfiles(r.Store, store.ByApp, r.JobFilter()) {
			t.AddRow(p.Key, fmt.Sprintf("%d", p.Jobs), fmt.Sprintf("%.1f", p.FailurePct))
		}
		t.Render(b)
	case StakeholderAdmin:
		// §4.3.4: persistence/prediction, scheduler effectiveness.
		tab, err := r.Persistence()
		if err != nil {
			return err
		}
		head("persistence (Table 1)")
		Table1(b, tab)
		head("persistence fit (Fig 6)")
		Fig6(b, r.Cluster, tab)
		head("forecasts and scheduling hints")
		if err := ForecastReport(b, r); err != nil {
			return err
		}
	case StakeholderManager:
		// §4.3.5: workload characterization, system-level reports,
		// trends.
		head("system reports (Fig 7)")
		Fig7(b, r)
		head("workload characterization")
		Characterization(b, r.Cluster, r.Characterize())
		head("resource use trends")
		Trends(b, r.Cluster, r.TrendReport())
	case StakeholderFunding:
		// §4.3.6: cross-system accountability.
		head("system operation profiles (Figs 8-12 headlines)")
		for _, fig := range []func(*bytes.Buffer, *core.Realm) error{Fig8, Fig9, Fig11} {
			if err := fig(b, r); err != nil {
				return err
			}
		}
		head("usage by discipline over time")
		t := NewTable("", "week start", "science", "node-hours", "share")
		points := r.UsageByScienceOverTime(7)
		for i, p := range points {
			if i >= 18 {
				t.AddRow("...", fmt.Sprintf("%d more rows", len(points)-18), "", "")
				break
			}
			t.AddRow(fmt.Sprintf("%d", p.BucketStart), p.Science,
				fmt.Sprintf("%.0f", p.NodeHours), fmt.Sprintf("%.0f%%", p.Share*100))
		}
		t.Render(b)
		if len(realms) > 1 {
			head("cross-system comparison")
			cmp := core.CompareSystems(realms...)
			ct := NewTable("", "cluster", "node-hours", "efficiency", "allocated")
			for _, row := range cmp.Rows {
				ct.AddRow(row.Cluster, fmt.Sprintf("%.0f", row.NodeHours),
					fmt.Sprintf("%.1f%%", row.Efficiency*100),
					fmt.Sprintf("%.1f%%", row.AllocatedFraction*100))
			}
			ct.Render(b)
		}
	default:
		return fmt.Errorf("report: unknown stakeholder %q", who)
	}
	if q != nil && (who == StakeholderSupport || who == StakeholderAdmin) {
		head("data completeness")
		DataCompleteness(b, q)
	}
	return nil
}
