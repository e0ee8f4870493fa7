package store

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

// compiledFilter is a Filter resolved against the store's dictionaries:
// string predicates become uint32 code comparisons, so the scan loop
// never touches string data. impossible marks a filter naming a string
// value absent from its dictionary (no row can match); allRows marks a
// filter every row provably passes (each predicate vacuous), which lets
// the kernels skip materializing a row-index list entirely.
type compiledFilter struct {
	cluster, user, app, science, status int64 // dict code, or -1 for "any"
	minSamples                          int32
	endAfter, endBefore                 int64
	impossible                          bool
	allRows                             bool
}

// compileDict resolves one string predicate: -1 for "any", the code
// when present, impossible when the value is unknown. vacuous reports
// whether the predicate passes every row.
func compileDict(d *DictColumn, val string, n int) (code int64, impossible, vacuous bool) {
	if val == "" {
		return -1, false, true
	}
	c, ok := d.code(val)
	if !ok {
		return 0, true, false
	}
	return int64(c), false, d.counts[c] == n
}

// compile resolves f against the store's dictionaries and bounds.
func (s *Store) compile(f Filter) compiledFilter {
	n := s.Len()
	cf := compiledFilter{
		minSamples: int32(f.MinSamples),
		endAfter:   f.EndAfter,
		endBefore:  f.EndBefore,
	}
	vacuous := true
	resolve := func(d *DictColumn, val string) int64 {
		code, imp, vac := compileDict(d, val, n)
		cf.impossible = cf.impossible || imp
		vacuous = vacuous && vac
		return code
	}
	cf.cluster = resolve(&s.c.Cluster, f.Cluster)
	cf.user = resolve(&s.c.User, f.User)
	cf.app = resolve(&s.c.App, f.App)
	cf.science = resolve(&s.c.Science, f.Science)
	cf.status = resolve(&s.c.Status, f.Status)
	if f.MinSamples > 0 && (n == 0 || int32(f.MinSamples) > s.c.minSamples) {
		vacuous = false
	}
	if f.EndAfter != 0 && (n == 0 || f.EndAfter > s.c.minEnd) {
		vacuous = false
	}
	if f.EndBefore != 0 && (n == 0 || f.EndBefore <= s.c.maxEnd) {
		vacuous = false
	}
	cf.allRows = vacuous && !cf.impossible && n > 0
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
// "all n rows" (no materialized index — the broad-scan fast path) or an
// explicit ascending row-id list. Both enumerate rows in the same
// ascending order, so kernels consuming either form accumulate in
// identical order and produce bit-identical aggregates.
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

// selectSet evaluates the filter into a rowSet: a provably vacuous
// filter yields the implicit all-rows set with no allocation; an
// indexed store narrows through the shortest posting list; otherwise a
// compiled columnar scan materializes the ascending row list.
func (s *Store) selectSet(f Filter) rowSet {
	cf := s.compile(f)
	if cf.impossible {
		return rowSet{}
	}
	if cf.allRows {
		return rowSet{all: true, n: s.Len()}
	}
	if s.idx != nil {
		if best, ok := s.idx.narrowest(f); ok {
			idx := make([]int32, 0, len(best))
			for _, i := range best {
				if s.matchCompiled(int(i), &cf) {
					idx = append(idx, i)
				}
			}
			return rowSet{idx: idx}
		}
	}
	return rowSet{idx: s.scanCompiled(&cf)}
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

// scanCompiled is the full-scan arm over the compiled filter.
func (s *Store) scanCompiled(cf *compiledFilter) []int32 {
	var idx []int32
	for i, n := 0, s.Len(); i < n; i++ {
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
