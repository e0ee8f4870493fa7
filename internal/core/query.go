package core

import "supremm/internal/store"

// Query is a custom report specification — the reproduction of XDMoD's
// "option for stakeholders to define custom reports" (§4.3): a group-by
// dimension, a metric list, filters and a row limit, all expressible as
// the compact key=value string serve.ParseQuery reads (the /api/v1/query
// keys).
type Query struct {
	GroupBy store.GroupKey
	Metrics []store.Metric
	Filter  store.Filter
	Limit   int
	// Normalize divides each metric by the fleet mean (radar-profile
	// semantics) instead of reporting raw weighted means.
	Normalize bool
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
	// Each of a group's means is divided once, however often its metric
	// is repeated in q.Metrics.
	if q.Normalize {
		for _, g := range groups {
			for m, mean := range g.Mean {
				if fm := res.FleetMeans[m]; fm != 0 {
					g.Mean[m] = mean / fm
				}
			}
		}
	}
	return res
}
