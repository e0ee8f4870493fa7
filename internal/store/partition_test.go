package store

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// rowwiseReorderByEndDay is the retired row-at-a-time ReorderByEndDay
// (every row materialized as a JobRecord, stably sorted, re-added with
// five string-hash lookups each), kept as the oracle the columnar
// gather is held to.
func (s *Store) rowwiseReorderByEndDay() {
	recs := make([]JobRecord, s.Len())
	for i := range recs {
		recs[i] = s.Record(i)
	}
	sort.SliceStable(recs, func(a, b int) bool {
		return EpochDay(recs[a].End) < EpochDay(recs[b].End)
	})
	*s = Store{}
	for _, r := range recs {
		s.Add(r)
	}
}

// rowwisePartitionByEndDay is the retired row-at-a-time day partition,
// the oracle for partitionByEndDay.
func (s *Store) rowwisePartitionByEndDay() ([]int64, []*Columns) {
	byDay := make(map[int64]*Columns)
	var days []int64
	for i, n := 0, s.Len(); i < n; i++ {
		r := s.Record(i)
		d := EpochDay(r.End)
		c := byDay[d]
		if c == nil {
			c = &Columns{}
			byDay[d] = c
			days = append(days, d)
		}
		c.appendRecord(r)
	}
	sort.Slice(days, func(a, b int) bool { return days[a] < days[b] })
	cols := make([]*Columns, len(days))
	for i, d := range days {
		cols[i] = byDay[d]
	}
	return days, cols
}

// columnsView is every serialized and derived field of a Columns with
// the float columns as bit patterns, so reflect.DeepEqual compares NaN
// payloads instead of failing on NaN != NaN.
type columnsView struct {
	JobID, Submit, Start, End []int64
	Nodes, Samples            []int32
	Dicts                     [numGroupKeys]DictColumn
	Metrics                   [NumMetrics][]uint64
	Weight                    []uint64
	MinSamples                int32
	MinEnd, MaxEnd            int64
}

func viewOf(c *Columns) columnsView {
	bits := func(col []float64) []uint64 {
		if col == nil {
			return nil
		}
		out := make([]uint64, len(col))
		for i, v := range col {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	v := columnsView{
		JobID: c.JobID, Submit: c.Submit, Start: c.Start, End: c.End,
		Nodes: c.Nodes, Samples: c.Samples,
		Dicts:      c.keys,
		Weight:     bits(c.weight),
		MinSamples: c.minSamples, MinEnd: c.minEnd, MaxEnd: c.maxEnd,
	}
	for k := range c.Metrics {
		v.Metrics[k] = bits(c.Metrics[k])
	}
	return v
}

// requireSameColumns holds got to want on every field — dictionary
// Values order, Codes, index, counts, weight bits, the vacuity bounds —
// and on the encoded bytes.
func requireSameColumns(t *testing.T, label string, got, want *Columns) {
	t.Helper()
	if g, w := viewOf(got), viewOf(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: columnar result differs from the row-wise oracle\n got %+v\nwant %+v", label, g, w)
	}
	if !bytes.Equal(EncodeColumns(got), EncodeColumns(want)) {
		t.Fatalf("%s: encoded bytes differ from the row-wise oracle", label)
	}
}

// gatherCase is one seeded random store shape.
type gatherCase struct {
	name       string
	rows, days int
	sorted     bool // rows arrive in end-time order instead of interleaved
	nan, empty bool // NaN/Inf metrics; empty-string keys
	lateValue  bool // the last row carries a user seen nowhere else
}

func (gc gatherCase) build(seed int64) *Store {
	rng := rand.New(rand.NewSource(seed))
	users := []string{"alice", "böb", "carol", "dave", "erin", "frank"}
	if gc.empty {
		users[2] = ""
	}
	ends := make([]int64, gc.rows)
	for i := range ends {
		// Around the epoch, so negative days exercise the floored EpochDay.
		ends[i] = int64(rng.Intn(gc.days)-gc.days/2)*SecondsPerDay + int64(rng.Intn(SecondsPerDay))
	}
	if gc.sorted {
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	}
	st := New()
	for i, end := range ends {
		r := JobRecord{
			JobID: rng.Int63n(1 << 40), Cluster: "ranger",
			User: users[rng.Intn(len(users))], App: "app" + string(rune('a'+rng.Intn(9))),
			Science: []string{"Chem", "Phys", "Bio"}[rng.Intn(3)], Nodes: rng.Intn(128),
			Start: end - int64(rng.Intn(90000)), End: end,
			Status: []string{"completed", "failed"}[rng.Intn(2)], Samples: rng.Intn(7),
		}
		r.Submit = r.Start - int64(rng.Intn(3600))
		if gc.empty && rng.Intn(4) == 0 {
			r.Science, r.App = "", ""
		}
		r.CPUIdleFrac, r.FlopsGF, r.MemUsedGB = rng.Float64(), rng.NormFloat64(), float64(rng.Intn(32))
		r.LnetTxMB = rng.ExpFloat64()
		if gc.nan {
			switch rng.Intn(5) {
			case 0:
				r.FlopsGF = math.NaN()
			case 1:
				r.CPUIdleFrac = math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
			case 2:
				r.ReadMB = math.Inf(-1)
			}
		}
		if gc.lateValue && i == gc.rows-1 {
			r.User = "seen-only-in-the-last-row"
		}
		st.Add(r)
	}
	return st
}

var gatherCases = []gatherCase{
	{name: "interleaved days", rows: 600, days: 7},
	{name: "already grouped", rows: 400, days: 5, sorted: true},
	{name: "single day", rows: 200, days: 1},
	{name: "one row", rows: 1, days: 1},
	{name: "empty store", rows: 0, days: 1},
	{name: "NaN metrics", rows: 500, days: 4, nan: true},
	{name: "empty-string keys", rows: 500, days: 4, empty: true},
	{name: "value first seen in the last row", rows: 300, days: 6, lateValue: true},
	{name: "everything at once", rows: 900, days: 11, nan: true, empty: true, lateValue: true},
}

// TestPartitionMatchesRowwiseOracle: the columnar day partition builds,
// for every day, exactly the Columns the row-wise partition built.
func TestPartitionMatchesRowwiseOracle(t *testing.T) {
	for _, gc := range gatherCases {
		for seed := int64(1); seed <= 3; seed++ {
			st := gc.build(seed)
			wantDays, wantCols := st.rowwisePartitionByEndDay()
			gotDays, gotCols := st.partitionByEndDay()
			if !reflect.DeepEqual(gotDays, wantDays) || len(gotCols) != len(wantCols) {
				t.Fatalf("%s/seed %d: days %v, oracle %v", gc.name, seed, gotDays, wantDays)
			}
			for k := range wantCols {
				requireSameColumns(t, gc.name, gotCols[k], wantCols[k])
			}
		}
	}
}

// TestReorderMatchesRowwiseOracle: the columnar reorder leaves the store
// field-for-field as the row-wise reorder left it.
func TestReorderMatchesRowwiseOracle(t *testing.T) {
	for _, gc := range gatherCases {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := gc.build(seed), gc.build(seed)
			got.ReorderByEndDay()
			want.rowwiseReorderByEndDay()
			requireSameColumns(t, gc.name, got.Columns(), want.Columns())
		}
	}
}
