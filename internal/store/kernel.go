package store

import (
	"context"
	"math"
	"sort"

	"supremm/internal/stats"
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
// selected sequence: rows are its ascending selected row ids, and end
// counts the selected rows of this and every earlier partition, so the
// partition's rows sit at [end-len(rows), end). Its sums come only
// through the seam in memo.go; memo is non-nil when the rows are one of
// the shard's whole populations.
type shardSel struct {
	rows []int32
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
		end += len(s.rows)
		s.end = end
	}
	return sel
}

// selectSet fills s with what a filter that compiled selects of the
// shard: one of its whole populations, from its memo, or the rows
// walked.
func (sh *Shard) selectSet(cf *compiledFilter, s *shardSel) {
	if cf.whole == popNone {
		s.rows, s.use = sh.walkSet(cf), partWalked
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
		for _, r := range s.rows {
			out = append(out, base+int(r))
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
type Selection struct {
	ss  *ShardSet
	sel []shardSel
}

// Len returns the number of selected rows across all partitions.
func (s Selection) Len() int { return selTotal(s.sel) }

// Walk is the ordered row walk: fn runs once per partition holding a
// selected row, in partition order, with that partition's columns and
// its ascending selected row ids, indexes into the columns. The shard
// may remember the list and hand it to every later call, so fn only
// reads it. A caller that consumes each call's rows front to back,
// with accumulators kept across calls, therefore sees exactly the
// global row order of Records — the guarantee that keeps a
// column-reading analysis bit-identical to the row loop it replaces,
// for any shard split.
func (s Selection) Walk(fn func(c *Columns, rows []int32)) {
	for _, p := range s.sel {
		if len(p.rows) > 0 {
			// Clipped, so an append in fn reallocates instead of writing
			// into the remembered list's spare capacity.
			fn(p.c, p.rows[:len(p.rows):len(p.rows)])
		}
	}
}

// Values extracts metric m for the selected rows, in global row order;
// nil for an empty selection.
func (s Selection) Values(m Metric) []float64 {
	if s.Len() == 0 {
		return nil
	}
	vals := make([]float64, s.Len())
	for _, p := range s.sel {
		col := p.c.Metric(m)
		v := vals[p.end-len(p.rows) : p.end]
		for j, r := range p.rows {
			v[j] = col[r]
		}
	}
	return vals
}

// NodeHours sums the §4.1 node-hour weights of the selected rows. It is
// a kernel call of its own: a partition whose sum it folds counts
// walked, one whose sum it reads from a filled slot remembered.
func (s Selection) NodeHours() float64 {
	for i := range s.sel {
		if p := &s.sel[i]; p.memo != nil {
			p.use = partRemembered // until its slot's fill says walked
		} else if p.use != partPruned {
			p.use = partWalked
		}
	}
	total := sumWeights(s.sel)
	s.ss.tally(s.sel)
	return total
}

// Records materializes the selected rows, in global row order — the one
// exported place a selection becomes JobRecords (export, CLI tools,
// tests); analyses read the columns through Walk or Values instead.
func (s Selection) Records() []JobRecord {
	out := make([]JobRecord, 0, s.Len())
	for _, p := range s.sel {
		for _, r := range p.rows {
			out = append(out, p.c.record(int(r)))
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
func weightRun(weight []float64, rows []int32) float64 {
	var sw float64
	for _, r := range rows {
		sw += weight[r]
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
// order.
func sumRun(p *aggPartial, col, weight []float64, rows []int32) {
	sw, swx, plain, lo, hi := p.sw, p.swx, p.plain, p.min, p.max
	for _, i := range rows {
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
	p.sw, p.swx, p.plain, p.min, p.max = sw, swx, plain, lo, hi
}

// devRun is the second pass over the same rows: the partition's
// weighted squared deviations from mean, added in row order.
func devRun(mean float64, col, weight []float64, rows []int32) float64 {
	var ss float64
	for _, i := range rows {
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
	sel = selRun(sel)
	total, err := mergePartials(ctx, sel, m)
	if err != nil {
		return Agg{}, err
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
			dev += devRun(mean, s.c.Metric(m), s.c.weight, s.rows)
		}
		agg.StdDev = math.Sqrt(dev / total.sw)
	}
	return agg, nil
}

// selRun trims a selection holding a row to the run of partitions from
// the first to the last that hold one: a time window selects a run of
// adjacent day partitions, and only the run is visited.
func selRun(sel []shardSel) []shardSel {
	for len(sel[0].rows) == 0 {
		sel = sel[1:]
	}
	for len(sel[len(sel)-1].rows) == 0 {
		sel = sel[:len(sel)-1]
	}
	return sel
}

// mergePartials adds the partitions' partials of metric m in partition
// order, checking ctx between partitions.
func mergePartials(ctx context.Context, sel []shardSel, m Metric) (aggPartial, error) {
	total := newPartial()
	for i := range sel {
		if cancelled(ctx) {
			return aggPartial{}, ctx.Err()
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
	return total, nil
}

// bounds is the smallest and largest number metric m takes over the
// selected rows — stats.MinMax of Values(m), without the copy: the min
// and max of the partitions' partials (a whole population's from its
// memo), merged in partition order, whose strict comparisons keep the
// first of a -0/+0 tie as MinMax's running fold does. NaN, NaN when no
// selected row holds a number.
func bounds(ctx context.Context, sel []shardSel, m Metric) (lo, hi float64, err error) {
	total, err := mergePartials(ctx, sel, m)
	if err != nil {
		return 0, 0, err
	}
	if total.min > total.max {
		return math.NaN(), math.NaN(), nil
	}
	return total.min, total.max, nil
}

// Histogram is the distribution kernel: metric m over the filtered rows
// binned into bins equal-width buckets across their bounds — which is
// stats.NewHistogram over Values(m) and stats.MinMax's range, bin for
// bin, but one ordered walk adds each selected value in place, through
// the same Add, and no copy of the selection is made. An empty
// selection has the range [0, 0) and no bins. ctx is checked between
// partitions, as in aggregate: a fired ctx returns its error, never a
// partial histogram.
func (ss *ShardSet) Histogram(ctx context.Context, m Metric, f Filter, bins int) (*stats.Histogram, error) {
	sel := ss.selectParts(f)
	defer ss.tally(sel)
	if selTotal(sel) == 0 {
		return stats.EmptyHistogram(0, 0, bins), nil
	}
	sel = selRun(sel)
	lo, hi, err := bounds(ctx, sel, m)
	if err != nil {
		return nil, err
	}
	h := stats.EmptyHistogram(lo, hi, bins)
	if len(h.Counts) == 0 {
		return h, nil
	}
	for i := range sel {
		if cancelled(ctx) {
			return nil, ctx.Err()
		}
		col := sel[i].c.Metric(m)
		for _, r := range sel[i].rows {
			h.Add(col[r])
		}
	}
	return h, nil
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
// that took a row merge into their keys' totals, in partition order,
// through the set's union of the key's dictionaries: a code becomes
// its key's id by one table read, and the id indexes the key's slot.
func (ss *ShardSet) groupRows(k GroupKey, metrics []Metric, f Filter) []Group {
	sel := ss.selectParts(f)
	defer ss.tally(sel)
	if len(sel) > 0 && sel[0].c.KeyColumn(k) == nil {
		return groupAll(sel, metrics)
	}
	stride := 1 + len(metrics)
	codes := 0 // the largest dictionary among the partitions holding a selected row
	for _, s := range sel {
		if len(s.rows) > 0 {
			codes = max(codes, len(s.c.KeyColumn(k).Values))
		}
	}
	u := ss.union(k)
	total := groupSums{stride, make([]int, 0, codes), make([]float64, 0, codes*stride)}
	keys := make([]string, 0, codes)
	slotOf := make([]int32, u.keys) // by key id: 1 + the key's slot, 0 until it takes a row
	sc := newGroupScratch(len(metrics), codes)
	l := make([]float64, stride) // one code's partition sums
	for i := range sel {
		s := &sel[i]
		if len(s.rows) == 0 {
			continue
		}
		part := s.groups(k, metrics, &sc)
		ids := u.ids[i]
		for _, code := range part.codes {
			at := int(code) * part.stride
			for j, col := range part.sums {
				l[j] = col[at]
			}
			n, id := part.n[code], ids[code]
			if ks := int(slotOf[id]) - 1; ks >= 0 {
				total.n[ks] += n
				t := total.at(ks)
				for j, x := range l {
					t[j] += x
				}
			} else {
				// A key's first partial is its total so far.
				slotOf[id] = int32(len(keys) + 1)
				keys = append(keys, s.c.KeyColumn(k).Values[code])
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

// keyUnion is the union of one key's dictionaries over a set's shards:
// keys distinct values, numbered in order of first appearance over the
// shards in list order, and ids[i][c] the number of shard i's code c.
type keyUnion struct {
	keys int
	ids  [][]uint32
}

// union returns key k's union over the set's shards, built on the first
// group-by by k and kept for the set's life: the shards never change,
// so neither does it.
func (ss *ShardSet) union(k GroupKey) *keyUnion {
	return ss.unions[k].Get(func() *keyUnion {
		n := 0
		for _, sh := range ss.shards {
			n += len(sh.c.keys[k].Values)
		}
		flat := make([]uint32, n)
		u := &keyUnion{ids: make([][]uint32, len(ss.shards))}
		idOf := make(map[string]uint32)
		for i, sh := range ss.shards {
			values := sh.c.keys[k].Values
			u.ids[i], flat = flat[:len(values):len(values)], flat[len(values):]
			for c, v := range values {
				id, ok := idOf[v]
				if !ok {
					id = uint32(len(idOf))
					idOf[v] = id
				}
				u.ids[i][c] = id
			}
		}
		u.keys = len(idOf)
		return u
	})
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
func groupRun(g groupSums, codes []uint32, rows []int32, weight []float64, cols [][]float64) {
	for _, i := range rows {
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
			if len(sel[i].rows) > 0 {
				swx[j] += sel[i].partial(m).swx
			}
		}
	}
	return []Group{newGroup("", selTotal(sel), sumWeights(sel), swx, metrics)}
}
