package core

import (
	"fmt"
	"strconv"
	"strings"

	"supremm/internal/store"
)

// Query is a custom report specification — the reproduction of XDMoD's
// "option for stakeholders to define custom reports" (§4.3): a group-by
// dimension, a metric list, filters and a row limit, all expressible as
// a compact string.
type Query struct {
	GroupBy store.GroupKey
	Metrics []store.Metric
	Filter  store.Filter
	Limit   int
	// Normalize divides each metric by the fleet mean (radar-profile
	// semantics) instead of reporting raw weighted means.
	Normalize bool
}

// ParseQuery parses the compact query syntax:
//
//	group=user|app|science|cluster|status
//	metrics=cpu_idle,cpu_flops,...        (default: the 8 key metrics)
//	user=NAME app=NAME science=NAME cluster=NAME status=NAME
//	minsamples=N limit=N normalize=true
//
// Fields are whitespace-separated key=value pairs; unknown keys are
// rejected so typos fail loudly.
func ParseQuery(s string) (Query, error) {
	q := Query{
		GroupBy: store.ByUser,
		Metrics: store.KeyMetrics(),
		Filter:  store.Filter{MinSamples: 1},
		Limit:   20,
	}
	for _, field := range strings.Fields(s) {
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return Query{}, fmt.Errorf("query: %q is not key=value", field)
		}
		switch key {
		case "group":
			g, ok := store.ParseGroupKey(value)
			if !ok {
				return Query{}, fmt.Errorf("query: unknown group %q", value)
			}
			q.GroupBy = g
		case "metrics":
			q.Metrics = q.Metrics[:0]
			for _, m := range strings.Split(value, ",") {
				metric := store.Metric(m)
				if store.MetricPos(metric) < 0 {
					return Query{}, fmt.Errorf("query: unknown metric %q", m)
				}
				q.Metrics = append(q.Metrics, metric)
			}
		case "user":
			q.Filter.User = value
		case "app":
			q.Filter.App = value
		case "science":
			// Science names contain spaces; queries use '+' for them.
			q.Filter.Science = strings.ReplaceAll(value, "+", " ")
		case "cluster":
			q.Filter.Cluster = value
		case "status":
			q.Filter.Status = value
		case "minsamples":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 || n > store.MaxMinSamples {
				return Query{}, fmt.Errorf("query: bad minsamples %q (want integer in [0, %d])", value, store.MaxMinSamples)
			}
			q.Filter.MinSamples = n
		case "limit":
			n, err := strconv.Atoi(value)
			if err != nil || n < 1 {
				return Query{}, fmt.Errorf("query: bad limit %q", value)
			}
			q.Limit = n
		case "normalize":
			b, err := strconv.ParseBool(value)
			if err != nil {
				return Query{}, fmt.Errorf("query: bad normalize %q", value)
			}
			q.Normalize = b
		default:
			return Query{}, fmt.Errorf("query: unknown key %q", key)
		}
	}
	return q, nil
}

// QueryResult is one rendered custom report.
type QueryResult struct {
	Query  Query
	Groups []store.Group
	// FleetMeans holds the normalization denominators when Normalize is
	// set (also useful context otherwise).
	FleetMeans map[store.Metric]float64
}

// RunQuery executes a custom report against the realm. The realm's
// cluster filter is applied on top of the query's own filters so a
// realm never leaks another cluster's jobs.
func (r *Realm) RunQuery(q Query) QueryResult {
	f := q.Filter
	if f.Cluster == "" {
		f.Cluster = r.Cluster
	}
	groups := r.Store.GroupBy(q.GroupBy, q.Metrics, f)
	if q.Limit > 0 && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}
	res := QueryResult{Query: q, Groups: groups, FleetMeans: make(map[store.Metric]float64)}
	for _, m := range q.Metrics {
		res.FleetMeans[m] = r.FleetMean(m)
	}
	if q.Normalize {
		for _, g := range groups {
			for _, m := range q.Metrics {
				if fm := res.FleetMeans[m]; fm != 0 {
					g.Mean[m] /= fm
				}
			}
		}
	}
	return res
}
