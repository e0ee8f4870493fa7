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
