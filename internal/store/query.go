package store

import "math"

// Filter restricts a query to matching rows. Zero values mean "any".
type Filter struct {
	Cluster string
	User    string
	App     string
	Science string
	Status  string
	// MinSamples excludes jobs with fewer monitor intervals; the paper
	// analyzes only jobs longer than the 10-minute sampling interval.
	MinSamples int
	// Time window on job end (unix seconds); 0 means unbounded.
	EndAfter  int64
	EndBefore int64
}

// MaxMinSamples is the largest MinSamples the query parsers accept
// (serve.decodeParams, core.ParseQuery): a job holds far fewer monitor
// intervals than this, and the sample count is a 32-bit column.
const MaxMinSamples = 1 << 30

// population names a whole-partition selection: what is left of a filter
// once compile has dropped every predicate the partition's rows all
// pass. Product traffic selects two — every row, and the paper's §4.1
// population (decodeParams, ParseQuery and Realm.JobFilter all default
// to MinSamples 1) — and those are what a shard remembers (memo.go).
type population int8

const (
	popNone    population = iota - 1 // a predicate survives: rows are walked
	popAll                           // every row
	popSampled                       // rows with Samples >= 1
	numPops    = iota - 1
)

// compiledFilter is a Filter resolved against one partition: string
// predicates become uint32 code comparisons, so the scan loop never
// touches string data, and a predicate every row provably passes (a
// value all rows carry, a threshold at or below the partition's
// minimum, a window bound outside its end range) is dropped — it costs
// no comparison per row and narrows no posting list. impossible marks a
// filter no row can match. whole names the population selected when
// nothing but MinSamples <= 1 survives; the kernels then take the rows
// and their sums from the shard's memo instead of walking.
type compiledFilter struct {
	cluster, user, app, science, status int64 // dict code, or -1 for "any"
	minSamples                          int32 // 0 for "any"
	endAfter, endBefore                 int64 // 0 for unbounded
	impossible                          bool
	whole                               population
}

// compileDict resolves one string predicate: -1 for "any" — no value
// asked for, or one every row carries — the code when the value narrows,
// impossible when no row holds it.
func compileDict(d *DictColumn, val string, n int) (code int64, impossible bool) {
	if val == "" {
		return -1, false
	}
	c, ok := d.code(val)
	if !ok {
		return -1, true
	}
	if d.counts[c] == n {
		return -1, false
	}
	return int64(c), false
}

// compile resolves f against the store's dictionaries and bounds.
func (s *Store) compile(f Filter) compiledFilter {
	n := s.Len()
	if n == 0 {
		return compiledFilter{impossible: true, whole: popNone}
	}
	cf := compiledFilter{whole: popNone}
	narrowed := false // some dictionary predicate survives
	resolve := func(d *DictColumn, val string) int64 {
		code, imp := compileDict(d, val, n)
		cf.impossible = cf.impossible || imp
		narrowed = narrowed || code >= 0
		return code
	}
	cf.cluster = resolve(&s.c.Cluster, f.Cluster)
	cf.user = resolve(&s.c.User, f.User)
	cf.app = resolve(&s.c.App, f.App)
	cf.science = resolve(&s.c.Science, f.Science)
	cf.status = resolve(&s.c.Status, f.Status)
	switch {
	case f.MinSamples > math.MaxInt32:
		cf.impossible = true // Samples is an int32 column: no row reaches it
	case f.MinSamples > max(0, int(s.c.minSamples)):
		cf.minSamples = int32(f.MinSamples)
	}
	if f.EndAfter > s.c.minEnd {
		cf.endAfter = f.EndAfter
	}
	if f.EndBefore != 0 && f.EndBefore <= s.c.maxEnd {
		cf.endBefore = f.EndBefore
	}
	if cf.impossible || narrowed || cf.endAfter != 0 || cf.endBefore != 0 {
		return cf
	}
	switch cf.minSamples {
	case 0:
		cf.whole = popAll
	case 1:
		cf.whole = popSampled
	}
	return cf
}

// matchCompiled reports whether row i passes the compiled filter.
func (s *Store) matchCompiled(i int, cf *compiledFilter) bool {
	c := &s.c
	switch {
	case cf.cluster >= 0 && int64(c.Cluster.Codes[i]) != cf.cluster:
		return false
	case cf.user >= 0 && int64(c.User.Codes[i]) != cf.user:
		return false
	case cf.app >= 0 && int64(c.App.Codes[i]) != cf.app:
		return false
	case cf.science >= 0 && int64(c.Science.Codes[i]) != cf.science:
		return false
	case cf.status >= 0 && int64(c.Status.Codes[i]) != cf.status:
		return false
	case cf.minSamples > 0 && c.Samples[i] < cf.minSamples:
		return false
	case cf.endAfter != 0 && c.End[i] < cf.endAfter:
		return false
	case cf.endBefore != 0 && c.End[i] >= cf.endBefore:
		return false
	}
	return true
}

// rowSet is the internal result of a selection: either an implicit
// "all n rows" (no materialized index) or an explicit ascending row-id
// list. Both enumerate rows in the same ascending order, so kernels
// consuming either form accumulate in identical order and produce
// bit-identical aggregates. A kernel only reads a list: a remembered
// one is shared by every call that selects the population.
type rowSet struct {
	all bool
	n   int     // row count when all
	idx []int32 // ascending rows otherwise
}

func (rs rowSet) len() int {
	if rs.all {
		return rs.n
	}
	return len(rs.idx)
}

// row returns the j'th selected row id.
func (rs rowSet) row(j int) int {
	if rs.all {
		return j
	}
	return int(rs.idx[j])
}

// walkSet evaluates a compiled filter that cuts the partition into its
// ascending row list: an indexed store narrows through the shortest
// posting list of a surviving predicate, otherwise a compiled columnar
// scan.
func (s *Store) walkSet(cf *compiledFilter) rowSet {
	if s.idx != nil {
		if best, ok := s.idx.narrowest(cf); ok {
			idx := make([]int32, 0, len(best))
			for _, i := range best {
				if s.matchCompiled(int(i), cf) {
					idx = append(idx, i)
				}
			}
			return rowSet{idx: idx}
		}
	}
	return rowSet{idx: s.scanCompiled(cf)}
}

// canMatch prunes a whole partition against the filter's end-time
// window using the columns' derived bounds — O(1), no row touched.
// Pruning only ever skips partitions whose selection is provably empty
// (matchCompiled rejects End < EndAfter and End >= EndBefore), so it
// cannot change the selected set, only the work done to compute it.
func (s *Store) canMatch(f Filter) bool {
	c := &s.c
	if c.Len() == 0 {
		return false
	}
	if f.EndAfter != 0 && c.maxEnd < f.EndAfter {
		return false
	}
	if f.EndBefore != 0 && c.minEnd >= f.EndBefore {
		return false
	}
	return true
}

// scanCompiled is the full-scan arm over the compiled filter. The list
// is made once at the partition's row count: a scan is what a broad
// filter gets, and growing it by appends cost a dozen copies a shard.
func (s *Store) scanCompiled(cf *compiledFilter) []int32 {
	n := s.Len()
	idx := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if s.matchCompiled(i, cf) {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// Agg is a weighted aggregate of one metric over a row set.
type Agg struct {
	N         int
	NodeHours float64
	Mean      float64 // node-hour weighted
	StdDev    float64 // node-hour weighted population sd
	Min, Max  float64
	// UnweightedMean is the plain per-job mean, kept for the ablation
	// benchmark comparing weighted vs unweighted statistics.
	UnweightedMean float64
}

// GroupKey selects the grouping dimension.
type GroupKey int

// Grouping dimensions.
const (
	ByUser GroupKey = iota
	ByApp
	ByScience
	ByCluster
	ByStatus
)

// numGroupKeys is the number of grouping dimensions.
const numGroupKeys = len(groupKeyNames)

// groupKeyNames is the query vocabulary's name for each dimension.
var groupKeyNames = [...]string{ByUser: "user", ByApp: "app", ByScience: "science", ByCluster: "cluster", ByStatus: "status"}

// ParseGroupKey maps a dimension's name to its key; ok is false for a
// name that is not one.
func ParseGroupKey(name string) (k GroupKey, ok bool) {
	for i, n := range groupKeyNames {
		if n == name {
			return GroupKey(i), true
		}
	}
	return 0, false
}

// Name is ParseGroupKey's inverse; a key that is no dimension is
// "unknown".
func (k GroupKey) Name() string {
	if k < 0 || int(k) >= len(groupKeyNames) {
		return "unknown"
	}
	return groupKeyNames[k]
}

// KeyColumn returns the dictionary column behind a grouping dimension,
// nil for a key that is no dimension.
func (c *Columns) KeyColumn(k GroupKey) *DictColumn {
	switch k {
	case ByUser:
		return &c.User
	case ByApp:
		return &c.App
	case ByScience:
		return &c.Science
	case ByCluster:
		return &c.Cluster
	case ByStatus:
		return &c.Status
	default:
		return nil
	}
}

// Group is one group-by bucket.
type Group struct {
	Key       string
	N         int
	NodeHours float64
	// Mean holds the node-hour-weighted mean of each requested metric.
	Mean map[Metric]float64
}
