package report

import (
	"fmt"
	"io"
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

// SuiteWithQuality renders the named stakeholder's report set,
// assembling the §4.3 reports that section assigns to the class. Realms
// beyond the first enable the cross-system pieces (Fig 3, advice,
// comparison); a single realm renders the single-system subset. The
// classes that operate the pipeline — support staff (§4.3.3, triaging
// "where did my job's data go") and admins (§4.3.4, judging whether the
// archive is trustworthy) — also get the data-completeness view of q;
// a nil q omits it, so callers without a quality.json lose nothing.
func SuiteWithQuality(w io.Writer, who Stakeholder, q *ingest.DataQuality, realms ...*core.Realm) error {
	if len(realms) == 0 {
		return fmt.Errorf("report: suite needs at least one realm")
	}
	r := realms[0]
	head := func(title string) error {
		_, err := fmt.Fprintf(w, "\n######## %s suite: %s ########\n", strings.ToUpper(string(who)), title)
		return err
	}
	completeness := func() error {
		if q == nil {
			return nil
		}
		if err := head("data completeness"); err != nil {
			return err
		}
		return DataCompleteness(w, q)
	}
	switch who {
	case StakeholderUser:
		// §4.3.1: resource use profile, comparative use, anomalous
		// patterns, system choice.
		if err := head("usage profiles (Fig 2)"); err != nil {
			return err
		}
		if err := Fig2(w, r, 3); err != nil {
			return err
		}
		if err := head("anomalous resource use"); err != nil {
			return err
		}
		for i, p := range r.AnomalousUsers(store.MetricCPUIdle, 3, 50) {
			if i >= 2 {
				break
			}
			if err := Radar(w, p); err != nil {
				return err
			}
		}
		if len(realms) > 1 {
			if err := head("which system suits the top codes (Fig 3 reading)"); err != nil {
				return err
			}
			for _, app := range core.MDCodes() {
				choice := core.AdviseSystem(app, realms...)
				if choice.Best != "" {
					if _, err := fmt.Fprintf(w, "  %-10s -> %s\n", app, choice.Best); err != nil {
						return err
					}
				}
			}
		}
		return nil
	case StakeholderDeveloper:
		// §4.3.2: app profiles, comparative profiles, variability.
		if err := head("application profiles (Fig 3)"); err != nil {
			return err
		}
		return Fig3(w, realms, core.MDCodes())
	case StakeholderSupport:
		// §4.3.3: inefficient users, abnormal terminations.
		if err := head("wasted node-hours (Fig 4)"); err != nil {
			return err
		}
		if err := Fig4(w, r); err != nil {
			return err
		}
		if err := head("the circled user (Fig 5)"); err != nil {
			return err
		}
		if err := Fig5(w, r); err != nil {
			return err
		}
		if err := head("job completion failure profiles"); err != nil {
			return err
		}
		t := NewTable("", "app", "jobs", "failure%")
		for _, p := range anomaly.FailureProfiles(r.Store, store.ByApp, r.JobFilter()) {
			t.AddRow(p.Key, fmt.Sprintf("%d", p.Jobs), fmt.Sprintf("%.1f", p.FailurePct))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		return completeness()
	case StakeholderAdmin:
		// §4.3.4: persistence/prediction, scheduler effectiveness.
		tab, err := r.Persistence(10)
		if err != nil {
			return err
		}
		if err := head("persistence (Table 1)"); err != nil {
			return err
		}
		if err := Table1(w, tab); err != nil {
			return err
		}
		if err := head("persistence fit (Fig 6)"); err != nil {
			return err
		}
		if err := Fig6(w, r.Cluster, tab); err != nil {
			return err
		}
		if err := head("forecasts and scheduling hints"); err != nil {
			return err
		}
		if err := ForecastReport(w, r); err != nil {
			return err
		}
		return completeness()
	case StakeholderManager:
		// §4.3.5: workload characterization, system-level reports,
		// trends.
		if err := head("system reports (Fig 7)"); err != nil {
			return err
		}
		if err := Fig7(w, r); err != nil {
			return err
		}
		if err := head("workload characterization"); err != nil {
			return err
		}
		if err := Characterization(w, r.Cluster, r.Characterize()); err != nil {
			return err
		}
		if err := head("resource use trends"); err != nil {
			return err
		}
		return Trends(w, r.Cluster, r.TrendReport())
	case StakeholderFunding:
		// §4.3.6: cross-system accountability.
		if err := head("system operation profiles (Figs 8-12 headlines)"); err != nil {
			return err
		}
		for _, f := range []func() error{
			func() error { return Fig8(w, r) },
			func() error { return Fig9(w, r) },
			func() error { return Fig11(w, r) },
		} {
			if err := f(); err != nil {
				return err
			}
		}
		if err := head("usage by discipline over time"); err != nil {
			return err
		}
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
		if err := t.Render(w); err != nil {
			return err
		}
		if len(realms) > 1 {
			if err := head("cross-system comparison"); err != nil {
				return err
			}
			cmp := core.CompareSystems(realms...)
			ct := NewTable("", "cluster", "node-hours", "efficiency", "allocated")
			for _, row := range cmp.Rows {
				ct.AddRow(row.Cluster, fmt.Sprintf("%.0f", row.NodeHours),
					fmt.Sprintf("%.1f%%", row.Efficiency*100),
					fmt.Sprintf("%.1f%%", row.AllocatedFraction*100))
			}
			return ct.Render(w)
		}
		return nil
	default:
		return fmt.Errorf("report: unknown stakeholder %q", who)
	}
}
