package store

import (
	"context"
	"math"
	"sort"
)

// The query engine (DESIGN.md §11, §14.3): one kernel per Reader method,
// written over a *ShardSet's ordered day shards; a finished *Store is
// queried as the one-shard set AsSet gives. The logical row space is the
// concatenation of the shards in list order, rows in their original
// order within each. A filter becomes rows once, in selectParts; a
// Selection keeps that result, and what it hands out (Values, Records,
// Walk) depends on the row sequence alone. The summing kernels
// (Aggregate, GroupBy, Selection.NodeHours) have one definition of a
// sum: each partition folds its selected rows serially, in row order,
// into a partial of its own, and the partials are added in partition
// order — so a sum depends on the rows and on where they are cut, and
// on nothing else (not the index, not the filter shape, not whether the
// shard remembered its partial or folded it just now: memo.go). One
// partition's sum is the plain running sum.

// partUse says how one kernel call got a partition's share of its
// answer, the three ways ShardSet.PartitionUse counts.
type partUse uint8

const (
	partPruned     partUse = iota // no row can match: bounds or dictionaries said so
	partWalked                    // a filter was evaluated or a fold run over its rows
	partRemembered                // a whole population, every slot asked already filled
	numPartUses
)

// shardSel is one partition's selection with its place in the global
// selected sequence: end counts the selected rows of this and every
// earlier partition, so the partition's rows sit at [end-len(), end).
// Its sums come only through the seam in memo.go; memo is non-nil when
// the rows are one of the shard's whole populations.
type shardSel struct {
	rowSet
	end  int
	c    *Columns
	memo *popMemo
	use  partUse
}

// selTotal is the number of rows selected across all partitions.
func selTotal(sel []shardSel) int {
	if len(sel) == 0 {
		return 0
	}
	return sel[len(sel)-1].end
}

// selectParts evaluates the filter per partition: each shard's compile
// prunes it (window or dictionary miss) or leaves a whole population
// for its memo or rows to walk.
func (ss *ShardSet) selectParts(f Filter) []shardSel {
	sel := make([]shardSel, len(ss.shards))
	var cf compiledFilter
	end := 0
	for i, sh := range ss.shards {
		s := &sel[i]
		s.c = sh.c
		if sh.compile(&f, &cf) {
			sh.selectSet(&cf, s)
		}
		end += s.len()
		s.end = end
	}
	return sel
}

// selectSet fills s with what a filter that compiled selects of the
// shard: one of its whole populations, from its memo, or the rows
// walked.
func (sh *Shard) selectSet(cf *compiledFilter, s *shardSel) {
	if cf.whole == popNone {
		s.rowSet, s.use = sh.walkSet(cf), partWalked
		return
	}
	s.wholeRows(sh, cf)
}

// tally adds one kernel call's partition uses to the set's counters.
func (ss *ShardSet) tally(sel []shardSel) {
	var n [numPartUses]int64
	for i := range sel {
		n[sel[i].use]++
	}
	for use := range n {
		ss.uses[use].Add(n[use])
	}
}

// selectRows returns the global row indices passing the filter,
// ascending; nil when none do.
func (ss *ShardSet) selectRows(f Filter) []int {
	sel := ss.selectParts(f)
	ss.tally(sel)
	if selTotal(sel) == 0 {
		return nil
	}
	out := make([]int, 0, selTotal(sel))
	base := 0
	for _, s := range sel {
		for j, n := 0, s.len(); j < n; j++ {
			out = append(out, base+s.row(j))
		}
		base += s.c.Len()
	}
	return out
}

// Selection is what a filter turns into: which rows of which partition
// passed, left in place with nothing copied out of the columns. One
// Scan answers any number of questions about the same job population —
// Len, NodeHours, one Values slice per metric, Records, or a Walk over
// the columns themselves.
type Selection struct{ sel []shardSel }

// Rows is one partition's selected row ids, ascending.
type Rows struct{ rs rowSet }

// Len returns how many rows of the partition are selected.
func (r Rows) Len() int { return r.rs.len() }

// At returns the j'th selected row id, an index into the partition's
// columns.
func (r Rows) At(j int) int { return r.rs.row(j) }

// Len returns the number of selected rows across all partitions.
func (s Selection) Len() int { return selTotal(s.sel) }

// Walk is the ordered row walk: fn runs once per partition holding a
// selected row, in partition order, with that partition's columns and
// its ascending selected row ids. A caller that consumes each call's
// rows front to back, with accumulators kept across calls, therefore
// sees exactly the global row order of Records — the guarantee that
// keeps a column-reading analysis bit-identical to the row loop it
// replaces, for any shard split.
func (s Selection) Walk(fn func(c *Columns, rows Rows)) {
	for _, p := range s.sel {
		if p.len() > 0 {
			fn(p.c, Rows{p.rowSet})
		}
	}
}

// Values extracts metric m for the selected rows, in global row order;
// nil for an empty selection. An all-rows partition is one contiguous
// copy.
func (s Selection) Values(m Metric) []float64 {
	if s.Len() == 0 {
		return nil
	}
	vals := make([]float64, s.Len())
	for _, p := range s.sel {
		col := p.c.Metric(m)
		v := vals[p.end-p.len() : p.end]
		if p.all {
			copy(v, col[:p.n])
			continue
		}
		for j, r := range p.idx {
			v[j] = col[r]
		}
	}
	return vals
}

// NodeHours sums the §4.1 node-hour weights of the selected rows.
func (s Selection) NodeHours() float64 { return sumWeights(s.sel) }

// Records materializes the selected rows, in global row order — the one
// exported place a selection becomes JobRecords (export, CLI tools,
// tests); analyses read the columns through Walk or Values instead.
func (s Selection) Records() []JobRecord {
	out := make([]JobRecord, 0, s.Len())
	for _, p := range s.sel {
		for j, n := 0, p.len(); j < n; j++ {
			out = append(out, p.c.record(p.row(j)))
		}
	}
	return out
}

// sumWeights adds the selection's node-hour weights: a running sum per
// partition in row order, the partition sums added in partition order.
func sumWeights(sel []shardSel) float64 {
	var total float64
	for i := range sel {
		total += sel[i].nodeHours()
	}
	return total
}

// weightRun is one partition's running sum of its selected rows' weights.
func weightRun(weight []float64, rs rowSet) float64 {
	var sw float64
	if rs.all {
		for _, w := range weight[:rs.n] {
			sw += w
		}
	} else {
		for _, r := range rs.idx {
			sw += weight[r]
		}
	}
	return sw
}

// aggPartial is one partition's sums over its selected rows, and the
// merged total they add up to.
type aggPartial struct {
	sw, swx, plain float64
	min, max       float64
	ss             float64 // second pass only
}

// newPartial is the empty partial. The ±Inf seed, rather than the first
// selected value, is what keeps a NaN metric value out of min and max
// wherever it sits: no comparison with NaN ever holds.
func newPartial() aggPartial { return aggPartial{min: math.Inf(1), max: math.Inf(-1)} }

// sumRun folds one partition's selected rows into p, in ascending
// order. The two arms — the contiguous sweep of an all-rows selection
// and the index-indirect sweep — perform the same operations on the
// same rows in the same order, so they are bit-identical whenever they
// see the same selection; the contiguous arm just reads two sequential
// streams with no row-id indirection.
func sumRun(p *aggPartial, col, weight []float64, rs rowSet) {
	sw, swx, plain, lo, hi := p.sw, p.swx, p.plain, p.min, p.max
	if rs.all {
		for i := 0; i < rs.n; i++ {
			w := weight[i]
			v := col[i]
			sw += w
			swx += w * v
			plain += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	} else {
		for _, i := range rs.idx {
			w := weight[i]
			v := col[i]
			sw += w
			swx += w * v
			plain += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	p.sw, p.swx, p.plain, p.min, p.max = sw, swx, plain, lo, hi
}

// devRun is the second pass over the same rows: the partition's
// weighted squared deviations from mean, added in row order.
func devRun(mean float64, col, weight []float64, rs rowSet) float64 {
	var ss float64
	if rs.all {
		for i := 0; i < rs.n; i++ {
			d := col[i] - mean
			ss += weight[i] * d * d
		}
		return ss
	}
	for _, i := range rs.idx {
		d := col[i] - mean
		ss += weight[i] * d * d
	}
	return ss
}

// emptyAgg is the aggregate of an empty selection.
func emptyAgg() Agg {
	nan := math.NaN()
	return Agg{Mean: nan, StdDev: nan, Min: nan, Max: nan, UnweightedMean: nan}
}

// aggregate is the aggregate kernel, the only one: the
// node-hour-weighted aggregate of metric m over the filtered rows. Each
// partition's partial (sumRun over its selected rows — once per shard
// for a whole population, which the shard then remembers) merges in
// partition order, and the second pass does the same for the squared
// deviations from the merged mean, over the rows every time: its terms
// depend on the request's mean. It runs on the calling goroutine: the
// daemon's requests already keep every core busy, and a fan-out over
// the partitions measured no faster (DESIGN.md §11).
//
// Cancellation is cooperative: ctx is checked between partitions, so a
// fired ctx stops the work within one partition and the call returns
// ctx's error, never a half-summed Agg. A nil ctx never cancels.
func (ss *ShardSet) aggregate(ctx context.Context, m Metric, f Filter) (Agg, error) {
	sel := ss.selectParts(f)
	defer ss.tally(sel)
	n := selTotal(sel)
	if n == 0 {
		return emptyAgg(), nil
	}
	// A time window selects a run of adjacent day partitions; only the
	// run is visited (n > 0: some partition holds a selected row).
	for sel[0].len() == 0 {
		sel = sel[1:]
	}
	for sel[len(sel)-1].len() == 0 {
		sel = sel[:len(sel)-1]
	}
	total := newPartial()
	for i := range sel {
		if cancelled(ctx) {
			return Agg{}, ctx.Err()
		}
		p := sel[i].partial(m)
		total.sw += p.sw
		total.swx += p.swx
		total.plain += p.plain
		if p.min < total.min {
			total.min = p.min
		}
		if p.max > total.max {
			total.max = p.max
		}
	}
	// Zero total weight has no weighted mean: Mean and StdDev stay NaN
	// and no second pass runs.
	agg := Agg{
		N: n, NodeHours: total.sw, Min: total.min, Max: total.max,
		UnweightedMean: total.plain / float64(n),
		Mean:           math.NaN(), StdDev: math.NaN(),
	}
	if total.sw != 0 {
		mean := total.swx / total.sw
		agg.Mean = mean
		var dev float64
		for _, s := range sel {
			if cancelled(ctx) {
				return Agg{}, ctx.Err()
			}
			dev += devRun(mean, s.c.Metric(m), s.c.weight, s.rowSet)
		}
		agg.StdDev = math.Sqrt(dev / total.sw)
	}
	return agg, nil
}

// cancelled reports whether ctx has fired; a nil ctx never does.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// groupSums holds group-by sums for a run of slots — one partition's
// dictionary codes, or the merged keys: n[s] rows, and at
// sums[s*stride:(s+1)*stride] their weight sum followed by one
// weighted sum per metric.
type groupSums struct {
	stride int
	n      []int
	sums   []float64
}

func newGroupSums(stride, slots int) groupSums {
	return groupSums{stride, make([]int, slots), make([]float64, slots*stride)}
}

func (g groupSums) at(s int) []float64 { return g.sums[s*g.stride : (s+1)*g.stride] }

// column copies out position j of the first n slots.
func (g groupSums) column(j, n int) []float64 {
	out := make([]float64, n)
	for s, src := 0, g.sums[j:]; s < n; s++ {
		out[s] = src[s*g.stride]
	}
	return out
}

// groupRows computes node-hour-weighted means of the metrics per group
// over the filtered rows, sorted by descending node-hours. It is the
// aggregate's definition per key: every partition folds its selected
// rows, in row order, into sums indexed directly by its own dictionary
// codes (groupRun — no row pays a string lookup; once per shard for a
// whole population, which the shard then remembers), then the codes
// that took a row merge into their keys' totals, in partition order, at
// one map lookup per (partition, key).
func (ss *ShardSet) groupRows(k GroupKey, metrics []Metric, f Filter) []Group {
	sel := ss.selectParts(f)
	defer ss.tally(sel)
	if len(sel) > 0 && sel[0].c.KeyColumn(k) == nil {
		return groupAll(sel, metrics)
	}
	stride := 1 + len(metrics)
	codes := 0 // the largest dictionary among the partitions holding a selected row
	for _, s := range sel {
		if s.len() > 0 {
			codes = max(codes, len(s.c.KeyColumn(k).Values))
		}
	}
	total := groupSums{stride, make([]int, 0, codes), make([]float64, 0, codes*stride)}
	keys := make([]string, 0, codes)
	slotOf := make(map[string]int, codes)
	sc := newGroupScratch(len(metrics), codes)
	l := make([]float64, stride) // one code's partition sums
	for i := range sel {
		s := &sel[i]
		if s.len() == 0 {
			continue
		}
		part := s.groups(k, metrics, &sc)
		values := s.c.KeyColumn(k).Values
		for _, code := range part.codes {
			at := int(code) * part.stride
			for j, col := range part.sums {
				l[j] = col[at]
			}
			n, key := part.n[code], values[code]
			if ks, ok := slotOf[key]; ok {
				total.n[ks] += n
				t := total.at(ks)
				for j, x := range l {
					t[j] += x
				}
			} else {
				// A key's first partial is its total so far.
				slotOf[key] = len(keys)
				keys = append(keys, key)
				total.n = append(total.n, n)
				total.sums = append(total.sums, l...)
			}
		}
	}
	out := make([]Group, len(keys))
	for s, key := range keys {
		out[s] = newGroup(key, total.n[s], total.at(s)[0], total.at(s)[1:], metrics)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// newGroup turns one key's merged sums into its Group.
func newGroup(key string, n int, sw float64, swx []float64, metrics []Metric) Group {
	g := Group{Key: key, N: n, NodeHours: sw, Mean: make(map[Metric]float64, len(metrics))}
	for j, m := range metrics {
		if sw > 0 {
			g.Mean[m] = swx[j] / sw
		} else {
			g.Mean[m] = math.NaN()
		}
	}
	return g
}

// groupRun folds one partition's selected rows into the sums of their
// dictionary codes, in ascending row order.
func groupRun(g groupSums, codes []uint32, rs rowSet, weight []float64, cols [][]float64) {
	for j, n := 0, rs.len(); j < n; j++ {
		i := rs.row(j)
		c := int(codes[i])
		a := g.at(c)
		w := weight[i]
		g.n[c]++
		a[0] += w
		for mj, col := range cols {
			a[1+mj] += w * col[i]
		}
	}
}

// groupAll handles an out-of-range GroupKey: every selected row lands
// in the "" bucket, whose sums per metric are the aggregate's first
// pass.
func groupAll(sel []shardSel, metrics []Metric) []Group {
	if selTotal(sel) == 0 {
		return []Group{}
	}
	swx := make([]float64, len(metrics))
	for j, m := range metrics {
		for i := range sel {
			if sel[i].len() > 0 {
				swx[j] += sel[i].partial(m).swx
			}
		}
	}
	return []Group{newGroup("", selTotal(sel), sumWeights(sel), swx, metrics)}
}
