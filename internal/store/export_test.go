package store

// What the differential tests need from inside the package. They live in
// package store_test because internal/reference, the oracle they hold
// the engine to, imports this package.

// Fixtures the in-package tests share with them.
var (
	FloorStore    = floorStore
	MultiDayStore = multiDayStore
	SpreadStore   = testStore
	HistoryParts  = historyParts
	HealFixture   = healFixture
)

// DayParts is st cut into its job-end day partitions, as WriteShardDir
// writes them.
func DayParts(st *Store) []*Columns {
	_, cols := st.partitionByEndDay()
	return cols
}

// PrunedParts counts the partitions a selection answers without
// touching a row.
func PrunedParts(ss *ShardSet, f Filter) (n int) {
	for _, s := range ss.selectParts(f) {
		if s.use == partPruned {
			n++
		}
	}
	return n
}

// Bounds is the histogram kernel's first step over the rows f selects:
// metric m's range, from the partitions' partials.
func Bounds(ss *ShardSet, m Metric, f Filter) (lo, hi float64) {
	sel := ss.selectParts(f)
	defer ss.tally(sel)
	lo, hi, _ = bounds(nil, sel, m)
	return lo, hi
}

// SeriesLine is LoadSeries' decoder of one line in SaveSeries' shape.
var SeriesLine = seriesLine

// LoadSeriesBuffered is LoadSeries over a read buffer of size bytes.
var LoadSeriesBuffered = loadSeries
