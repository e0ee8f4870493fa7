// Package anomaly is a compact reproduction of the ANCOR-style analysis
// the paper points to for systems administrators (§4.3.4, ref [26]):
// identifying jobs with anomalous resource-use patterns and linking them
// with rationalized log events to diagnose probable causes of faults and
// failures. It also produces the job-completion failure profiles named
// in the §4.3.1 user reports.
package anomaly

import (
	"fmt"
	"math"
	"sort"

	"supremm/internal/eventlog"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// Anomaly is one job flagged on one metric.
type Anomaly struct {
	JobID  int64
	User   string
	App    string
	Metric store.Metric
	Value  float64
	// Score is the robust z-score against the job's own application
	// population (an anomalous NAMD run is judged against NAMD runs,
	// not against data movers).
	Score float64
}

// Detector finds metric outliers per application population.
type Detector struct {
	// MinScore is the robust z threshold to flag; 4 by default.
	MinScore float64
	// MinPopulation skips apps with too few jobs for stable statistics.
	MinPopulation int
}

// NewDetector returns a Detector with defaults.
func NewDetector() *Detector {
	return &Detector{MinScore: 4, MinPopulation: 20}
}

// robustZ computes (x - median)/ (IQR/1.349), the outlier score the
// detector uses; falls back to NaN for degenerate spreads.
func robustZ(x, median, iqr float64) float64 {
	sigma := iqr / 1.349
	if sigma <= 0 {
		return math.NaN()
	}
	return (x - median) / sigma
}

// Detect scans the realm's jobs and returns anomalies sorted by
// descending |score|.
func (d *Detector) Detect(st store.Reader, f store.Filter, metrics []store.Metric) []Anomaly {
	// Partition rows by app.
	byApp := make(map[string][]store.JobRecord)
	for _, rec := range st.Scan(f).Records() {
		byApp[rec.App] = append(byApp[rec.App], rec)
	}
	var out []Anomaly
	for app, recs := range byApp {
		if len(recs) < d.MinPopulation {
			continue
		}
		for _, m := range metrics {
			vals := make([]float64, len(recs))
			for i, rec := range recs {
				vals[i] = rec.Value(m)
			}
			median := stats.Median(vals)
			iqr := stats.Quantile(vals, 0.75) - stats.Quantile(vals, 0.25)
			for i, rec := range recs {
				z := robustZ(vals[i], median, iqr)
				if !math.IsNaN(z) && math.Abs(z) >= d.MinScore {
					out = append(out, Anomaly{
						JobID: rec.JobID, User: rec.User, App: app,
						Metric: m, Value: vals[i], Score: z,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Score), math.Abs(out[j].Score)
		if ai != aj {
			return ai > aj
		}
		if out[i].JobID != out[j].JobID {
			return out[i].JobID < out[j].JobID
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Diagnosis links one job's anomalies with its log events.
type Diagnosis struct {
	JobID     int64
	User      string
	App       string
	Anomalies []Anomaly
	Events    []eventlog.Event
	// Cause is the inferred probable cause label.
	Cause string
}

// Link joins anomalies with job-tagged log events and infers a probable
// cause per job — the ANCOR step of "linking resource usage anomalies
// with system failures from cluster log data".
func Link(anomalies []Anomaly, events []eventlog.Event) []Diagnosis {
	evByJob := make(map[int64][]eventlog.Event)
	for _, ev := range events {
		if ev.JobID != 0 {
			evByJob[ev.JobID] = append(evByJob[ev.JobID], ev)
		}
	}
	byJob := make(map[int64]*Diagnosis)
	var order []int64
	for _, a := range anomalies {
		d := byJob[a.JobID]
		if d == nil {
			d = &Diagnosis{JobID: a.JobID, User: a.User, App: a.App, Events: evByJob[a.JobID]}
			byJob[a.JobID] = d
			order = append(order, a.JobID)
		}
		d.Anomalies = append(d.Anomalies, a)
	}
	out := make([]Diagnosis, 0, len(order))
	for _, id := range order {
		d := byJob[id]
		d.Cause = inferCause(d)
		out = append(out, *d)
	}
	return out
}

// inferCause applies the linkage heuristics: which subsystem's log
// traffic co-occurs with which metric anomaly.
func inferCause(d *Diagnosis) string {
	hasComponent := func(c string) bool {
		for _, ev := range d.Events {
			if ev.Component == c {
				return true
			}
		}
		return false
	}
	hasMetric := func(m store.Metric, positive bool) bool {
		for _, a := range d.Anomalies {
			if a.Metric == m && (a.Score > 0) == positive {
				return true
			}
		}
		return false
	}
	switch {
	case hasComponent("oom") && (hasMetric(store.MetricMemUsedMax, true) || hasMetric(store.MetricMemUsed, true)):
		return "memory exhaustion (OOM events with outlier memory usage)"
	case hasComponent("lustre") && (hasMetric(store.MetricScratchWrite, true) || hasMetric(store.MetricLnetTx, true)):
		return "filesystem contention (Lustre errors under outlier IO load)"
	case hasComponent("kernel") && hasMetric(store.MetricCPUIdle, true):
		return "node soft lockup (kernel events with anomalous idle time)"
	case hasMetric(store.MetricCPUIdle, true):
		return "inefficient resource use (high idle, no correlated faults)"
	case len(d.Events) > 0:
		return "unclassified fault (log events without matching metric signature)"
	default:
		return "statistical outlier (no correlated log events)"
	}
}

// FailureProfile is one row of the job-completion failure report.
type FailureProfile struct {
	Key        string // app or user
	Jobs       int
	Completed  int
	Failed     int
	Timeout    int
	NodeFail   int
	FailurePct float64 // non-COMPLETED share
}

// FailureProfiles computes completion/failure rates grouped by app or
// user (§4.3.1 "job completion failure profiles"); any other dimension
// the store knows groups by it, a key that is none by cluster. It reads
// two dictionary columns and materializes no row: per partition the
// jobs are counted by (key code, status code), then merged by key.
func FailureProfiles(st store.Reader, by store.GroupKey, f store.Filter) []FailureProfile {
	index := make(map[string]int) // key -> position in out
	out := []FailureProfile{}
	st.Scan(f).Walk(func(c *store.Columns, rows []int32) {
		keys, status := c.KeyColumn(by), c.KeyColumn(store.ByStatus)
		if keys == nil {
			keys = c.KeyColumn(store.ByCluster)
		}
		statuses := status.Values
		counts := make([]int, len(keys.Values)*len(statuses))
		for _, i := range rows {
			counts[int(keys.Codes[i])*len(statuses)+int(status.Codes[i])]++
		}
		for at, n := range counts {
			if n == 0 {
				continue
			}
			key := keys.Values[at/len(statuses)]
			i, ok := index[key]
			if !ok {
				i = len(out)
				index[key] = i
				out = append(out, FailureProfile{Key: key})
			}
			p := &out[i]
			p.Jobs += n
			switch statuses[at%len(statuses)] {
			case "COMPLETED":
				p.Completed += n
			case "FAILED":
				p.Failed += n
			case "TIMEOUT":
				p.Timeout += n
			case "NODE_FAIL":
				p.NodeFail += n
			}
		}
	})
	for i := range out {
		p := &out[i]
		p.FailurePct = float64(p.Jobs-p.Completed) / float64(p.Jobs) * 100
	}
	// Keys are distinct, so the order is total: the result does not depend
	// on the order they were met in.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jobs != out[j].Jobs {
			return out[i].Jobs > out[j].Jobs
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// String summarizes a diagnosis for reports.
func (d Diagnosis) String() string {
	return fmt.Sprintf("job %d (%s/%s): %s [%d anomalies, %d events]",
		d.JobID, d.User, d.App, d.Cause, len(d.Anomalies), len(d.Events))
}
