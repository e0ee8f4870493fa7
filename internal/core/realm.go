// Package core is the analytics and reporting framework of the
// reproduction — the XDMoD/SUPReMM layer (§4). It consumes the job-level
// store and the system-level series and produces the paper's analyses:
// correlation-driven metric selection (§4.2), normalized usage profiles
// (Figs 2/3/5), the efficiency/wasted-node-hours report (Fig 4), the
// persistence model (Table 1, Fig 6), and the system-level reports
// (Figs 7-12), organized per stakeholder (§4.3).
package core

import (
	"supremm/internal/cluster"
	"supremm/internal/store"
)

// Realm bundles one cluster's ingested data, in XDMoD's sense of a data
// realm. All §4 analyses hang off it.
type Realm struct {
	Cluster string
	// CoresPerNode and MemPerNodeGB carry the hardware shape needed by
	// per-core and fraction-of-capacity reports.
	CoresPerNode int
	MemPerNodeGB float64
	PeakTFlops   float64

	// Store is the query surface: a *store.ShardSet, loaded from a
	// manifest's day shards or taken from an in-memory store with
	// AsSet. It stays the interface the frozen benchmark names.
	Store store.Reader
	// Series is the system series, read-only once the realm is built:
	// what is computed from it (Persistence) is remembered with it, and
	// AdoptSeries hands both to the next generation's realm.
	Series []store.SystemSample

	// fleet memoizes FleetMean, one slot per metric in store.MetricPos
	// order, and character Characterize; a fill that panics leaves its
	// slot empty, never a zero. A realm wraps one immutable snapshot and
	// a reload builds a new realm, so these memos live and die with
	// their generation: there is nothing to invalidate (DESIGN.md §10).
	fleet     [store.NumMetrics]store.Slot[float64]
	character store.Slot[Characterization]
	// persist memoizes Persistence over Series, made by NewRealm (the
	// one constructor); a pointer, so it travels with the samples.
	persist *store.Slot[persistence]
}

// NewRealm assembles a realm over cc's machine: its name scopes every
// query, its per-node shape and peak scale the per-core and
// fraction-of-capacity reports.
func NewRealm(cc cluster.Config, st store.Reader, series []store.SystemSample) *Realm {
	return &Realm{
		Cluster:      cc.Name,
		CoresPerNode: cc.CoresPerNode(),
		MemPerNodeGB: cc.MemPerNodeGB,
		PeakTFlops:   cc.PeakTFlops(),
		Store:        st,
		Series:       series,
		persist:      new(store.Slot[persistence]),
	}
}

// JobFilter returns the realm's base filter: this cluster's jobs longer
// than one sampling interval, which is the population §4.1 analyzes
// ("jobs included in this study are those longer than the default
// TACC_Stats sampling interval of 10 minutes").
func (r *Realm) JobFilter() store.Filter {
	return store.Filter{Cluster: r.Cluster, MinSamples: 1}
}

// FleetMean returns the node-hour-weighted fleet mean of a metric — the
// normalization denominator for every radar profile ("normalized by the
// average value of each metric over all of the usage").
//
// The mean is a property of the loaded data, not of the request, so it
// is computed once per realm: the first caller of a metric runs the
// serial aggregate, concurrent first callers of the same metric wait on
// that one scan, and other metrics' slots are not blocked by it.
func (r *Realm) FleetMean(m store.Metric) float64 {
	pos := store.MetricPos(m)
	if pos < 0 {
		return r.Store.Aggregate(m, r.JobFilter()).Mean
	}
	return r.fleet[pos].Get(func() float64 {
		return r.Store.Aggregate(m, r.JobFilter()).Mean
	})
}

// JobCount returns how many jobs pass the base filter.
func (r *Realm) JobCount() int {
	return r.Store.Scan(r.JobFilter()).Len()
}

// TotalNodeHours returns the consumed node-hours in the realm.
func (r *Realm) TotalNodeHours() float64 {
	return r.Store.Scan(r.JobFilter()).NodeHours()
}

// persistence is one filled Persistence call.
type persistence struct {
	table *PersistenceTable
	err   error
}

// AdoptSeries makes prev's series r's, together with what prev computed
// from it: a reload whose series.jsonl did not change shares the samples
// and so the persistence table. r must not be in use yet.
func (r *Realm) AdoptSeries(prev *Realm) {
	r.Series, r.persist = prev.Series, prev.persist
}
