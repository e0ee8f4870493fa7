package store

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func rec(id int64, user, app string, nodes int, hours float64, idle, flops float64) JobRecord {
	return JobRecord{
		JobID: id, Cluster: "ranger", User: user, App: app,
		Science: "Physics", Nodes: nodes,
		Submit: 1000, Start: 2000, End: 2000 + int64(hours*3600),
		Status: "COMPLETED", Samples: int(hours * 6),
		CPUIdleFrac: idle, CPUUserFrac: 1 - idle - 0.05, CPUSysFrac: 0.05,
		MemUsedGB: 8, MemUsedMaxGB: 12, FlopsGF: flops,
		ScratchWriteMB: 1.5, WorkWriteMB: 0.1, ReadMB: 0.5,
		IBTxMB: 20, IBRxMB: 19, LnetTxMB: 2,
	}
}

func TestAddAndRecordRoundTrip(t *testing.T) {
	s := New()
	r := rec(1, "alice", "namd", 4, 2, 0.1, 5)
	s.Add(r)
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	got := s.Record(0)
	if got != r {
		t.Errorf("round trip:\n in  %+v\n out %+v", r, got)
	}
}

func TestJobRecordDerived(t *testing.T) {
	r := rec(1, "a", "x", 4, 2, 0.1, 5)
	if r.WallclockSec() != 7200 {
		t.Errorf("wallclock = %d", r.WallclockSec())
	}
	if r.NodeHours() != 8 {
		t.Errorf("node-hours = %v", r.NodeHours())
	}
}

func TestValueCoversAllMetrics(t *testing.T) {
	r := rec(1, "a", "x", 4, 2, 0.1, 5)
	for _, m := range AllMetrics() {
		if math.IsNaN(r.Value(m)) {
			t.Errorf("metric %s is NaN", m)
		}
	}
	if r.Value(Metric("bogus")) != 0 {
		t.Error("unknown metric should read 0")
	}
	if len(KeyMetrics()) != 8 {
		t.Errorf("key metrics = %d, want 8 (the paper's set)", len(KeyMetrics()))
	}
}

func TestSaveLoad(t *testing.T) {
	s := New()
	s.Add(rec(1, "alice", "namd", 4, 2, 0.1, 5))
	s.Add(rec(2, "bob", "amber", 2, 1, 0.3, 2))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d records", loaded.Len())
	}
	for i := 0; i < 2; i++ {
		if loaded.Record(i) != s.Record(i) {
			t.Errorf("record %d differs after save/load", i)
		}
	}
	if _, err := Load(strings.NewReader("{bad json")); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestFilter(t *testing.T) {
	s := New()
	s.Add(rec(1, "alice", "namd", 4, 2, 0.1, 5))
	s.Add(rec(2, "bob", "amber", 2, 1, 0.3, 2))
	s.Add(rec(3, "alice", "amber", 2, 3, 0.2, 3))
	short := rec(4, "alice", "namd", 1, 0.05, 0.1, 5)
	short.Samples = 0
	s.Add(short)
	failed := rec(5, "bob", "namd", 1, 1, 0.1, 5)
	failed.Status = "FAILED"
	s.Add(failed)
	ss := s.AsSet()

	if got := len(ss.Select(Filter{})); got != 5 {
		t.Errorf("no filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{User: "alice"})); got != 3 {
		t.Errorf("user filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{App: "amber"})); got != 2 {
		t.Errorf("app filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{MinSamples: 1})); got != 4 {
		t.Errorf("min samples: %d rows", got)
	}
	if got := len(ss.Select(Filter{Status: "FAILED"})); got != 1 {
		t.Errorf("status filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{User: "alice", App: "namd", MinSamples: 1})); got != 1 {
		t.Errorf("combined filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{Cluster: "lonestar4"})); got != 0 {
		t.Errorf("cluster filter: %d rows", got)
	}
	if got := len(ss.Select(Filter{Science: "Physics"})); got != 5 {
		t.Errorf("science filter: %d rows", got)
	}
	// Time window on End: first record ends at 2000+7200.
	if got := len(ss.Select(Filter{EndAfter: 9000})); got != 2 {
		t.Errorf("EndAfter: %d rows", got)
	}
	if got := len(ss.Select(Filter{EndBefore: 9000})); got != 3 {
		t.Errorf("EndBefore: %d rows", got)
	}
	recs := ss.Scan(Filter{User: "bob"}).Records()
	if len(recs) != 2 || recs[0].User != "bob" {
		t.Errorf("Records: %+v", recs)
	}
}

func TestAggregateWeighted(t *testing.T) {
	s := New()
	// Job 1: 8 node-hours at idle 0.1; job 2: 2 node-hours at idle 0.5.
	s.Add(rec(1, "a", "x", 4, 2, 0.1, 5))
	s.Add(rec(2, "b", "y", 2, 1, 0.5, 5))
	ss := s.AsSet()
	agg := ss.Aggregate(MetricCPUIdle, Filter{})
	want := (8*0.1 + 2*0.5) / 10
	if math.Abs(agg.Mean-want) > 1e-12 {
		t.Errorf("weighted mean = %v, want %v", agg.Mean, want)
	}
	if math.Abs(agg.UnweightedMean-0.3) > 1e-12 {
		t.Errorf("unweighted mean = %v, want 0.3", agg.UnweightedMean)
	}
	if agg.N != 2 || agg.NodeHours != 10 {
		t.Errorf("agg counts: %+v", agg)
	}
	if agg.Min != 0.1 || agg.Max != 0.5 {
		t.Errorf("min/max: %+v", agg)
	}
	// Weighted stddev about weighted mean.
	mu := want
	wantSD := math.Sqrt((8*(0.1-mu)*(0.1-mu) + 2*(0.5-mu)*(0.5-mu)) / 10)
	if math.Abs(agg.StdDev-wantSD) > 1e-12 {
		t.Errorf("weighted sd = %v, want %v", agg.StdDev, wantSD)
	}
	// Empty aggregate is NaN, not a panic.
	empty := ss.Aggregate(MetricCPUIdle, Filter{User: "nobody"})
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty agg: %+v", empty)
	}
}

func TestGroupBy(t *testing.T) {
	s := New()
	s.Add(rec(1, "alice", "namd", 4, 2, 0.1, 5))  // 8 nh
	s.Add(rec(2, "alice", "amber", 2, 1, 0.3, 2)) // 2 nh
	s.Add(rec(3, "bob", "namd", 1, 4, 0.2, 3))    // 4 nh
	ss := s.AsSet()
	groups := ss.GroupBy(ByUser, []Metric{MetricCPUIdle}, Filter{})
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Sorted by node-hours descending: alice (10) then bob (4).
	if groups[0].Key != "alice" || groups[1].Key != "bob" {
		t.Errorf("order: %v, %v", groups[0].Key, groups[1].Key)
	}
	wantAlice := (8*0.1 + 2*0.3) / 10
	if math.Abs(groups[0].Mean[MetricCPUIdle]-wantAlice) > 1e-12 {
		t.Errorf("alice idle = %v, want %v", groups[0].Mean[MetricCPUIdle], wantAlice)
	}
	if groups[0].N != 2 || groups[1].N != 1 {
		t.Errorf("group Ns: %d, %d", groups[0].N, groups[1].N)
	}
	byApp := ss.GroupBy(ByApp, []Metric{MetricFlops}, Filter{})
	if len(byApp) != 2 || byApp[0].Key != "namd" {
		t.Errorf("by app: %+v", byApp)
	}
	byScience := ss.GroupBy(ByScience, nil, Filter{})
	if len(byScience) != 1 || byScience[0].Key != "Physics" {
		t.Errorf("by science: %+v", byScience)
	}
	byCluster := ss.GroupBy(ByCluster, nil, Filter{})
	if len(byCluster) != 1 || byCluster[0].Key != "ranger" {
		t.Errorf("by cluster: %+v", byCluster)
	}
	byStatus := ss.GroupBy(ByStatus, nil, Filter{})
	if len(byStatus) != 1 || byStatus[0].Key != "COMPLETED" {
		t.Errorf("by status: %+v", byStatus)
	}
}

func TestValuesAndTotalNodeHours(t *testing.T) {
	s := New()
	s.Add(rec(1, "a", "x", 4, 2, 0.1, 5))
	s.Add(rec(2, "b", "y", 2, 1, 0.5, 7))
	ss := s.AsSet()
	sel := ss.Scan(Filter{})
	vals, weights := sel.Values(MetricFlops), selWeights(sel)
	if len(vals) != 2 || vals[0] != 5 || vals[1] != 7 {
		t.Errorf("vals = %v", vals)
	}
	if weights[0] != 8 || weights[1] != 2 {
		t.Errorf("weights = %v", weights)
	}
	if got := sel.NodeHours(); got != 10 {
		t.Errorf("total nh = %v", got)
	}
	if got := ss.Scan(Filter{User: "a"}).NodeHours(); got != 8 {
		t.Errorf("filtered nh = %v", got)
	}
}

// selWeights reads the node-hour weight of every selected row, in
// global order, through the ordered row walk.
func selWeights(sel Selection) []float64 {
	var out []float64
	sel.Walk(func(c *Columns, rows Rows) {
		for j := 0; j < rows.Len(); j++ {
			out = append(out, c.NodeHours()[rows.At(j)])
		}
	})
	return out
}

// TestAsSetIsolatedFromBuilder: a set taken from a store answers from
// the rows it was taken over, whatever the builder does next. The sharp
// case is vacuity: the set holds 99 rows of one user and one of another;
// one more Add of the first user makes the builder's count for that
// value equal the set's row count, and a set sharing the counts would
// then take "user = alice" for a predicate every row passes.
func TestAsSetIsolatedFromBuilder(t *testing.T) {
	st := New()
	for i := 0; i < 99; i++ {
		st.Add(rec(int64(i+1), "alice", "namd", 1+i%4, 1, float64(i%10)/10, float64(i)))
	}
	st.Add(rec(100, "bob", "amber", 2, 1, 0.5, 7))
	ss := st.AsSet()

	filters := []Filter{{}, {User: "alice"}, {User: "bob"}, {User: "carol"}, {App: "namd", MinSamples: 1}, {Cluster: "lonestar4"}, {EndBefore: 1 << 40}}
	type answers struct {
		Len    int
		Select []int
		Agg    Agg
		Groups []Group
		Values []float64
		Hours  float64
		Recs   []JobRecord
	}
	ask := func() []answers {
		out := make([]answers, len(filters))
		for i, f := range filters {
			sel := ss.Scan(f)
			out[i] = answers{
				Len: ss.Len(), Select: ss.Select(f), Agg: ss.Aggregate(MetricCPUIdle, f),
				Groups: ss.GroupBy(ByUser, []Metric{MetricFlops}, f),
				Values: sel.Values(MetricFlops), Hours: sel.NodeHours(), Recs: sel.Records(),
			}
		}
		return out
	}
	before := ask()
	if got := len(before[1].Select); got != 99 {
		t.Fatalf("user=alice selects %d rows before any further Add, want 99", got)
	}

	check := func(step string) {
		t.Helper()
		after := ask()
		for i, f := range filters {
			// Formatted, not DeepEqual: an empty aggregate is all NaN.
			if fmt.Sprintf("%+v", before[i]) != fmt.Sprintf("%+v", after[i]) {
				t.Errorf("after %s, filter %+v: the set's answers moved\nbefore %+v\n after %+v", step, f, before[i], after[i])
			}
		}
	}
	st.Add(rec(101, "alice", "namd", 1, 1, 0.9, 1))
	check("a 100th alice (the builder's count reaches the set's row count)")
	st.Add(rec(102, "carol", "wrf", 1, 1, 0.9, 1))
	check("a user the set has never seen")
	late := rec(103, "alice", "namd", 1, 1, 0.9, 1)
	late.Cluster, late.End, late.Samples = "lonestar4", 1<<41, 0
	st.Add(late)
	check("a row that moves every bound the builder keeps")
	if st.Len() != 103 || ss.Len() != 100 {
		t.Errorf("builder has %d rows, set %d; want 103 and 100", st.Len(), ss.Len())
	}
}

func TestSortByJobID(t *testing.T) {
	s := New()
	s.Add(rec(3, "c", "z", 1, 1, 0.1, 1))
	s.Add(rec(1, "a", "x", 1, 1, 0.1, 1))
	s.Add(rec(2, "b", "y", 1, 1, 0.1, 1))
	s.SortByJobID()
	for i := 0; i < 3; i++ {
		if s.Record(i).JobID != int64(i+1) {
			t.Fatalf("row %d: job %d", i, s.Record(i).JobID)
		}
	}
}

func TestSaveLoadPropertyRoundTrip(t *testing.T) {
	f := func(id int64, nodes uint8, idle8 uint8, flops uint16) bool {
		if id < 0 {
			id = -id
		}
		r := rec(id, "u", "app", int(nodes)+1, 1, float64(idle8)/255, float64(flops))
		s := New()
		s.Add(r)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil || loaded.Len() != 1 {
			return false
		}
		return loaded.Record(0) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
