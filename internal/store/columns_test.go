package store

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
)

// ---- the pre-columnar row path, kept as the reference ----
//
// baseline* reimplement the row-oriented execution engine the columnar
// kernels replaced: string-compare filtering, a materialized []int row
// list, node-hours recomputed per row from three columns, group-by
// through a string-keyed map over materialized records. It is the one
// naive reference every Reader method of a *ShardSet and every
// Selection consumer is checked against: the equivalence tests require
// the kernels to be bit-identical to this path; the speedup floor tests
// require them to beat it.
//
// The summing references take the split: cuts are the global row
// positions where the second and every later partition starts. Each
// partition's rows add into a running sum of their own and the
// partition sums add in order — the one definition of a sum (DESIGN.md
// §11). Without cuts that is the plain running sum over all the rows,
// which is what a one-shard set (AsSet) must answer.

// segments splits an ascending row list at the cuts.
func segments(idx []int, cuts []int) [][]int {
	var out [][]int
	for _, c := range cuts {
		n := sort.SearchInts(idx, c)
		out, idx = append(out, idx[:n]), idx[n:]
	}
	return append(out, idx)
}

// cutsOf returns the cuts of the split into the given partitions.
func cutsOf(parts []*Columns) []int {
	var cuts []int
	at := 0
	for _, c := range parts[:max(len(parts)-1, 0)] {
		at += c.Len()
		cuts = append(cuts, at)
	}
	return cuts
}

func (s *Store) baselineMatch(i int, f Filter) bool {
	switch {
	case f.Cluster != "" && s.c.Cluster.value(i) != f.Cluster:
		return false
	case f.User != "" && s.c.User.value(i) != f.User:
		return false
	case f.App != "" && s.c.App.value(i) != f.App:
		return false
	case f.Science != "" && s.c.Science.value(i) != f.Science:
		return false
	case f.Status != "" && s.c.Status.value(i) != f.Status:
		return false
	case f.MinSamples > 0 && int(s.c.Samples[i]) < f.MinSamples:
		return false
	case f.EndAfter != 0 && s.c.End[i] < f.EndAfter:
		return false
	case f.EndBefore != 0 && s.c.End[i] >= f.EndBefore:
		return false
	}
	return true
}

func (s *Store) baselineSelect(f Filter) []int {
	var idx []int
	for i := 0; i < s.Len(); i++ {
		if s.baselineMatch(i, f) {
			idx = append(idx, i)
		}
	}
	return idx
}

// prunedParts counts the partitions a selection answers without
// touching a row.
func prunedParts(ss *ShardSet, f Filter) (n int) {
	for _, s := range ss.selectParts(f) {
		if s.use == partPruned {
			n++
		}
	}
	return n
}

func (s *Store) baselineNodeHours(i int) float64 {
	return float64(int(s.c.Nodes[i])) * float64(s.c.End[i]-s.c.Start[i]) / 3600
}

// baselineAggregate is the old sequential Aggregate, one running sum
// per partition.
func (s *Store) baselineAggregate(m Metric, f Filter, cuts ...int) Agg {
	col := s.c.Metric(m)
	agg := Agg{Min: math.Inf(1), Max: math.Inf(-1)}
	var sw, swx, plain float64
	idx := s.baselineSelect(f)
	for _, seg := range segments(idx, cuts) {
		var psw, pswx, pplain float64
		for _, i := range seg {
			w := s.baselineNodeHours(i)
			v := col[i]
			psw += w
			pswx += w * v
			pplain += v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
		}
		sw += psw
		swx += pswx
		plain += pplain
	}
	agg.N = len(idx)
	agg.NodeHours = sw
	if agg.N == 0 {
		agg.Mean, agg.StdDev, agg.Min, agg.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		agg.UnweightedMean = math.NaN()
		return agg
	}
	agg.UnweightedMean = plain / float64(agg.N)
	if sw == 0 {
		agg.Mean, agg.StdDev = math.NaN(), math.NaN()
		return agg
	}
	agg.Mean = swx / sw
	var ss float64
	for _, seg := range segments(idx, cuts) {
		var pss float64
		for _, i := range seg {
			d := col[i] - agg.Mean
			pss += s.baselineNodeHours(i) * d * d
		}
		ss += pss
	}
	agg.StdDev = math.Sqrt(ss / sw)
	return agg
}

// baselineRecords materializes the selected rows one by one.
func (s *Store) baselineRecords(f Filter) []JobRecord {
	out := []JobRecord{}
	for _, i := range s.baselineSelect(f) {
		out = append(out, s.Record(i))
	}
	return out
}

// baselineValues reads each selected row's metric off its materialized
// record, with the recomputed node-hour weight.
func (s *Store) baselineValues(m Metric, f Filter) (vals, weights []float64) {
	for _, i := range s.baselineSelect(f) {
		r := s.Record(i)
		vals = append(vals, r.Value(m))
		weights = append(weights, s.baselineNodeHours(i))
	}
	return vals, weights
}

func (s *Store) baselineTotalNodeHours(f Filter, cuts ...int) float64 {
	var sw float64
	for _, seg := range segments(s.baselineSelect(f), cuts) {
		var psw float64
		for _, i := range seg {
			psw += s.baselineNodeHours(i)
		}
		sw += psw
	}
	return sw
}

// baselineGroupBy is the old string-keyed group-by over materialized
// records, one map of running sums per partition merged key by key in
// partition order; an out-of-range key groups everything under "".
func (s *Store) baselineGroupBy(k GroupKey, metrics []Metric, f Filter, cuts ...int) []Group {
	type acc struct {
		n   int
		sw  float64
		swx []float64
	}
	accs := map[string]*acc{}
	for _, seg := range segments(s.baselineSelect(f), cuts) {
		part := map[string]*acc{}
		for _, i := range seg {
			r := s.Record(i)
			key := ""
			switch k {
			case ByUser:
				key = r.User
			case ByApp:
				key = r.App
			case ByScience:
				key = r.Science
			case ByCluster:
				key = r.Cluster
			case ByStatus:
				key = r.Status
			}
			a := part[key]
			if a == nil {
				a = &acc{swx: make([]float64, len(metrics))}
				part[key] = a
			}
			w := s.baselineNodeHours(i)
			a.n++
			a.sw += w
			for mj, m := range metrics {
				a.swx[mj] += w * r.Value(m)
			}
		}
		for key, p := range part {
			a := accs[key]
			if a == nil {
				a = &acc{swx: make([]float64, len(metrics))}
				accs[key] = a
			}
			a.n += p.n
			a.sw += p.sw
			for mj := range metrics {
				a.swx[mj] += p.swx[mj]
			}
		}
	}
	out := []Group{}
	for key, a := range accs {
		g := Group{Key: key, N: a.n, NodeHours: a.sw, Mean: map[Metric]float64{}}
		for mj, m := range metrics {
			g.Mean[m] = math.NaN()
			if a.sw > 0 {
				g.Mean[m] = a.swx[mj] / a.sw
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// aggParallel is AggregateParallelCtx on a context that never fires.
func aggParallel(r Reader, m Metric, f Filter, workers int) Agg {
	agg, err := r.AggregateParallelCtx(context.Background(), m, f, workers)
	if err != nil {
		panic(err)
	}
	return agg
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

// equivStore builds a store exercising the tricky aggregation inputs:
// NaN metric values, zero-sample jobs, zero-node-hour jobs (end ==
// start), negative values and negative zeros, and enough distinct
// strings to stress the dictionaries.
func equivStore(n int) *Store {
	st := New()
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm", "vasp"}
	for i := 0; i < n; i++ {
		r := JobRecord{
			JobID:   int64(1000 + i),
			Cluster: []string{"ranger", "lonestar4"}[i%2],
			User:    "u" + string(rune('a'+i%23)),
			App:     apps[i%len(apps)],
			Science: []string{"Chemistry", "Physics", "Biology", ""}[i%4],
			Nodes:   i % 64, // includes zero-node rows
			Submit:  int64(50 * i),
			Start:   int64(50*i + 30),
			End:     int64(50*i+30) + 600*int64(i%7), // i%7==0 → zero wallclock
			Status:  []string{"completed", "failed"}[i%5/4],
			Samples: i % 5, // includes zero-sample rows
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 31)
		r.FlopsGF = 0.3 * float64(i%13)
		r.ReadMB = -1.5 * float64(i%9) // negative values
		if i%97 == 0 {
			r.FlopsGF = math.NaN() // NaN metric values
		}
		if i%89 == 0 {
			r.MemUsedGB = math.Inf(1)
		}
		st.Add(r)
	}
	return st
}

func aggBitsEqual(a, b Agg) bool {
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.N == b.N && feq(a.NodeHours, b.NodeHours) && feq(a.Mean, b.Mean) &&
		feq(a.StdDev, b.StdDev) && feq(a.Min, b.Min) && feq(a.Max, b.Max) &&
		feq(a.UnweightedMean, b.UnweightedMean)
}

var equivFilters = []Filter{
	{},                                  // all rows, vacuous
	{Cluster: "ranger"},                 // posting-list selective
	{Cluster: "ranger", MinSamples: 1},  // broad-scan shape
	{User: "ub", App: "amber"},          // narrow intersection
	{Science: "Physics", MinSamples: 3}, // scan with residual filter
	{Status: "failed"},                  // low-count dictionary value
	{EndAfter: 5000, EndBefore: 200000}, // time window
	{Cluster: "nonesuch"},               // impossible value
	{App: "hpl", EndBefore: 1},          // empty result via window
	{MinSamples: 10},                    // empty result via samples
	{Cluster: "ranger", User: "uc", App: "namd", Science: "Chemistry", Status: "completed", MinSamples: 1, EndAfter: 1, EndBefore: 1 << 40}, // every predicate at once
}

// TestColumnarAggregateEquivalence proves the columnar kernel is
// bit-identical to the retired row path on a one-shard set — through
// both entry points, for every worker count, including NaN metric
// values, zero-sample jobs and zero-node-hour jobs. The reference takes
// no cuts here: one shard's sum is the plain running sum.
func TestColumnarAggregateEquivalence(t *testing.T) {
	st := equivStore(10_000)
	ss := st.AsSet()
	for _, m := range []Metric{MetricFlops, MetricMemUsed, MetricRead, MetricCPUIdle} {
		for fi, f := range equivFilters {
			want := st.baselineAggregate(m, f)
			if got := ss.Aggregate(m, f); !aggBitsEqual(got, want) {
				t.Errorf("filter#%d %s: Aggregate %+v != baseline %+v", fi, m, got, want)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if got := aggParallel(ss, m, f, workers); !aggBitsEqual(got, want) {
					t.Errorf("filter#%d %s workers=%d: AggregateParallelCtx %+v != baseline %+v", fi, m, workers, got, want)
				}
			}
		}
	}
}

// TestColumnarSelectEquivalence pins Select (and therefore every
// kernel's row enumeration, through the posting lists or a scan) to the
// baseline string-compare scan.
func TestColumnarSelectEquivalence(t *testing.T) {
	st := equivStore(5_000)
	ss := st.AsSet()
	for fi, f := range equivFilters {
		if got, want := ss.Select(f), st.baselineSelect(f); !reflect.DeepEqual(got, want) {
			t.Errorf("filter#%d Select: %d rows differ from the baseline's %d", fi, len(got), len(want))
		}
	}
}

// TestAggregateParallelWorkerInvariance re-pins the daemon's core
// determinism property: AggregateParallelCtx ignores its worker count,
// so no value of it moves a bit.
func TestAggregateParallelWorkerInvariance(t *testing.T) {
	st := equivStore(20_000)
	ss := NewShardSet(splitParts(st, []int{1, 900, 4100, 9000, 9001, 15_000, 19_990}))
	for _, f := range equivFilters {
		want := ss.Aggregate(MetricFlops, f)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			if got := aggParallel(ss, MetricFlops, f, workers); !aggBitsEqual(got, want) {
				t.Fatalf("workers=%d: %+v != Aggregate %+v (filter %+v)", workers, got, want, f)
			}
		}
	}
}

// TestColumnarSpeedupFloor is the executable form of the acceptance
// criterion: the columnar broad-scan kernel (vacuous-filter shape,
// serve's store-broad benchmark) must be at least 2x faster than the
// retired row path on a 100k-job store. The typical measurement is
// ~4x; the floor is set low enough that scheduler noise cannot flake
// it.
func TestColumnarSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row timing comparison in -short mode")
	}
	st := floorStore(100_000)
	ss := st.AsSet()
	broad := Filter{Cluster: "ranger", MinSamples: 1}
	if got, want := ss.Aggregate(MetricFlops, broad), st.baselineAggregate(MetricFlops, broad); !aggBitsEqual(got, want) {
		t.Fatalf("columnar %+v != baseline %+v", got, want)
	}
	base := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = st.baselineAggregate(MetricFlops, broad)
		}
	})
	columnar := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ss.Aggregate(MetricFlops, broad)
		}
	})
	ratio := float64(base.NsPerOp()) / float64(columnar.NsPerOp())
	t.Logf("row path %v/op, columnar %v/op, speedup %.1fx", base.NsPerOp(), columnar.NsPerOp(), ratio)
	if ratio < 2 {
		t.Errorf("columnar broad-scan aggregate only %.1fx faster than the row path, want >= 2x", ratio)
	}
}

// floorStore mirrors the serve benchmark's 100k-job corpus shape (one
// cluster, 500 users, six apps).
func floorStore(n int) *Store {
	st := New()
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm"}
	users := make([]string, 500)
	for u := range users {
		users[u] = "u" + string(rune('0'+u/100)) + string(rune('0'+u/10%10)) + string(rune('0'+u%10))
	}
	for i := 0; i < n; i++ {
		r := JobRecord{
			JobID:   int64(100 + i),
			Cluster: "ranger",
			User:    users[i%len(users)],
			App:     apps[i%len(apps)],
			Science: []string{"Chemistry", "Physics", "Biology"}[i%3],
			Nodes:   1 + i%64,
			Submit:  int64(100 * i),
			Start:   int64(100*i + 60),
			End:     int64(100*i+60) + 1800*(1+int64(i%8)),
			Status:  "completed",
			Samples: 1 + i%5,
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 29)
		r.FlopsGF = 0.7 * float64(i%17)
		st.Add(r)
	}
	return st
}

// BenchmarkAggregateColumnar is the committed columnar-kernel benchmark
// (make bench-store): the broad vacuous-filter sweep and the selective
// posting-list path through the aggregate, against the retired row-path
// baseline, plus the group-by and values kernels on the same two
// filters — the one-shard figures, i.e. the one-partition case of the
// kernels.
func BenchmarkAggregateColumnar(b *testing.B) {
	st := floorStore(100_000)
	ss := st.AsSet()
	broad := Filter{Cluster: "ranger", MinSamples: 1}
	selective := Filter{Cluster: "ranger", User: "u042", MinSamples: 1}
	b.Run("broad-columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.Aggregate(MetricFlops, broad)
		}
	})
	b.Run("broad-rowpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = st.baselineAggregate(MetricFlops, broad)
		}
	})
	b.Run("selective-columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.Aggregate(MetricFlops, selective)
		}
	})
	b.Run("broad-groupby-user", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.GroupBy(ByUser, []Metric{MetricFlops, MetricCPUIdle}, broad)
		}
	})
	b.Run("selective-groupby-app", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.GroupBy(ByApp, []Metric{MetricFlops, MetricCPUIdle}, selective)
		}
	})
	b.Run("broad-values", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.Scan(broad).Values(MetricFlops)
		}
	})
	b.Run("selective-values", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ss.Scan(selective).Values(MetricFlops)
		}
	})
	b.Run("selective-rowpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = st.baselineAggregate(MetricFlops, selective)
		}
	})
}
