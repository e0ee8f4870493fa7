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

// MaxMinSamples is the largest MinSamples the query parser accepts
// (serve.decodeParams, which cmd/xdmod -query shares through
// serve.ParseQuery): a job holds far fewer monitor intervals than this,
// and the sample count is a 32-bit column.
const MaxMinSamples = 1 << 30

// population names a whole-partition selection: what is left of a filter
// once compile has dropped every predicate the partition's rows all
// pass. Product traffic selects two — every row, and the paper's §4.1
// population (decodeParams and Realm.JobFilter both default to
// MinSamples 1) — and those are what a shard remembers (memo.go).
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
// no comparison per row and narrows no posting list. whole names the
// population selected when nothing but MinSamples <= 1 survives; the
// kernels then take the rows and their sums from the shard's memo
// instead of walking.
type compiledFilter struct {
	cluster, user, app, science, status int64 // dict code, or -1 for "any"
	minSamples                          int32 // 0 for "any"
	endAfter, endBefore                 int64 // 0 for unbounded
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

// compile resolves f against the shard's dictionaries and bounds into
// cf, and reports whether any row can pass it — the one place a filter
// meets a partition's bounds. No row can when the window misses the
// end range, a value no row holds is asked for, or the shard is empty.
// The window comes first: a shard it misses is ruled out at O(1),
// before any dictionary lookup and before cf is written, so a one-day
// window over a long history costs one shard.
func (sh *Shard) compile(f *Filter, cf *compiledFilter) bool {
	c := sh.c
	n := c.Len()
	if n == 0 || (f.EndAfter != 0 && c.maxEnd < f.EndAfter) || (f.EndBefore != 0 && c.minEnd >= f.EndBefore) {
		return false
	}
	*cf = compiledFilter{whole: popNone}
	impossible, narrowed := false, false // no row can match; some dictionary predicate survives
	dict := func(d *DictColumn, val string) int64 {
		code, imp := compileDict(d, val, n)
		impossible = impossible || imp
		narrowed = narrowed || code >= 0
		return code
	}
	cf.cluster = dict(&c.Cluster, f.Cluster)
	cf.user = dict(&c.User, f.User)
	cf.app = dict(&c.App, f.App)
	cf.science = dict(&c.Science, f.Science)
	cf.status = dict(&c.Status, f.Status)
	switch {
	case f.MinSamples > math.MaxInt32:
		return false // Samples is an int32 column: no row reaches it
	case f.MinSamples > max(0, int(c.minSamples)):
		cf.minSamples = int32(f.MinSamples)
	}
	if f.EndAfter > c.minEnd {
		cf.endAfter = f.EndAfter
	}
	if f.EndBefore != 0 && f.EndBefore <= c.maxEnd {
		cf.endBefore = f.EndBefore
	}
	if impossible || narrowed || cf.endAfter != 0 || cf.endBefore != 0 {
		return !impossible
	}
	switch cf.minSamples {
	case 0:
		cf.whole = popAll
	case 1:
		cf.whole = popSampled
	}
	return true
}

// matchCompiled reports whether row i passes the compiled filter.
func (sh *Shard) matchCompiled(i int, cf *compiledFilter) bool {
	c := sh.c
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

// walkSet evaluates a compiled filter into the partition's ascending
// row-id list — the one form a selection takes, whole populations
// included: through the shortest posting list of a surviving indexed
// predicate, otherwise a compiled columnar scan. A kernel only reads a
// list: a remembered one is shared by every call that selects the
// population.
func (sh *Shard) walkSet(cf *compiledFilter) []int32 {
	if best, ok := sh.idx.narrowest(cf); ok {
		rows := make([]int32, 0, len(best))
		for _, i := range best {
			if sh.matchCompiled(int(i), cf) {
				rows = append(rows, i)
			}
		}
		return rows
	}
	return sh.scanCompiled(cf)
}

// scanCompiled is the full-scan arm over the compiled filter. The list
// is made once at the partition's row count: a scan is what a broad
// filter gets, and growing it by appends cost a dozen copies a shard.
func (sh *Shard) scanCompiled(cf *compiledFilter) []int32 {
	n := sh.c.Len()
	idx := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if sh.matchCompiled(i, cf) {
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
