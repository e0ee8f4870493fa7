// Package core is the analytics and reporting framework of the
// reproduction — the XDMoD/SUPReMM layer (§4). It consumes the job-level
// store and the system-level series and produces the paper's analyses:
// correlation-driven metric selection (§4.2), normalized usage profiles
// (Figs 2/3/5), the efficiency/wasted-node-hours report (Fig 4), the
// persistence model (Table 1, Fig 6), and the system-level reports
// (Figs 7-12), organized per stakeholder (§4.3).
package core

import (
	"sync"

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
	// Series is the system series, read-only once the realm is built.
	// What is computed from it (Persistence) is remembered with the
	// samples it was computed from, so a realm whose Series is
	// reassigned computes afresh.
	Series []store.SystemSample

	// fleet memoizes FleetMean, one slot per metric in store.MetricPos
	// order, and character Characterize; a fill that panics leaves its
	// slot empty, never a zero. A realm wraps one immutable snapshot and
	// a reload builds a new realm, so these memos live and die with
	// their generation: there is nothing to invalidate (DESIGN.md §10).
	fleet     [store.NumMetrics]store.Slot[float64]
	character store.Slot[Characterization]

	// seriesMu guards derived, the memo of what was computed from the
	// series; AdoptSeries hands it to the next generation's realm.
	seriesMu sync.Mutex
	derived  *seriesMemo
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

// seriesMemo is what was computed from one series value: the
// persistence tables, one per sampling step, each filled once with its
// error. It is keyed by the samples themselves, so it can travel with
// them from one realm to the next.
type seriesMemo struct {
	samples []store.SystemSample

	mu      sync.Mutex
	persist map[uint64]*store.Slot[persistence] // by math.Float64bits(stepMin)
}

// persistence is one filled Persistence call.
type persistence struct {
	table *PersistenceTable
	err   error
}

// memo returns the memo of the realm's present Series, starting an
// empty one when there is none or it was computed from other samples.
func (r *Realm) memo() *seriesMemo {
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	if r.derived == nil || !sameSamples(r.derived.samples, r.Series) {
		r.derived = &seriesMemo{samples: r.Series, persist: map[uint64]*store.Slot[persistence]{}}
	}
	return r.derived
}

// sameSamples reports whether a and b are one series value: the same
// backing array, the same length.
func sameSamples(a, b []store.SystemSample) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// AdoptSeries makes prev's series r's, together with everything prev
// computed from it: a reload whose series.jsonl did not change shares
// the samples and so the persistence tables. r must not be in use yet.
func (r *Realm) AdoptSeries(prev *Realm) {
	m := prev.memo()
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	r.Series, r.derived = m.samples, m
}
