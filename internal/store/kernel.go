package store

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
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
// on nothing else (not the worker count, not the index, not the filter
// shape, not whether the shard remembered its partial or folded it just
// now: memo.go). One partition's sum is the plain running sum.

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
// memo is non-nil when the rows are one of the shard's whole
// populations: its sums are then the memo's to give.
type shardSel struct {
	rowSet
	end  int
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

// selectParts evaluates the filter per partition: whole partitions are
// time-pruned first; per-partition compilation then prunes dictionary
// misses, hands a whole population to the shard's memo, and walks
// what is left.
func (ss *ShardSet) selectParts(f Filter) []shardSel {
	sel := make([]shardSel, len(ss.shards))
	end := 0
	for i, sh := range ss.shards {
		if sh.st.canMatch(f) {
			sel[i] = sh.selectSet(f)
		}
		end += sel[i].len()
		sel[i].end = end
	}
	return sel
}

// selectSet is one partition's selection; its end is the caller's to set.
func (sh *Shard) selectSet(f Filter) (s shardSel) {
	cf := sh.st.compile(f)
	switch {
	case cf.impossible:
	case cf.whole == popNone:
		s.rowSet, s.use = sh.st.walkSet(&cf), partWalked
	default:
		s.wholeRows(sh, &cf)
	}
	return s
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
	for i, sh := range ss.shards {
		rs := sel[i].rowSet
		for j, n := 0, rs.len(); j < n; j++ {
			out = append(out, base+rs.row(j))
		}
		base += sh.st.Len()
	}
	return out
}

// Selection is what a filter turns into: which rows of which partition
// passed, left in place with nothing copied out of the columns. One
// Scan answers any number of questions about the same job population —
// Len, NodeHours, one Values slice per metric, Records, or a Walk over
// the columns themselves.
type Selection struct {
	parts []*Shard
	sel   []shardSel
}

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
	for i, sh := range s.parts {
		if s.sel[i].len() > 0 {
			fn(&sh.st.c, Rows{s.sel[i].rowSet})
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
	for i, sh := range s.parts {
		rs := s.sel[i].rowSet
		col := sh.st.col(m)
		v := vals[s.sel[i].end-rs.len() : s.sel[i].end]
		if rs.all {
			copy(v, col[:rs.n])
			continue
		}
		for j, r := range rs.idx {
			v[j] = col[r]
		}
	}
	return vals
}

// NodeHours sums the §4.1 node-hour weights of the selected rows.
func (s Selection) NodeHours() float64 { return sumWeights(s.parts, s.sel) }

// Records materializes the selected rows, in global row order — the one
// exported place a selection becomes JobRecords (export, CLI tools,
// tests); analyses read the columns through Walk or Values instead.
func (s Selection) Records() []JobRecord {
	out := make([]JobRecord, 0, s.Len())
	for i, sh := range s.parts {
		rs := s.sel[i].rowSet
		for j, n := 0, rs.len(); j < n; j++ {
			out = append(out, sh.st.Record(rs.row(j)))
		}
	}
	return out
}

// sumWeights adds the selection's node-hour weights: a running sum per
// partition in row order (remembered for a whole population), the
// partition sums added in partition order.
func sumWeights(parts []*Shard, sel []shardSel) float64 {
	var total float64
	for i, sh := range parts {
		if sel[i].memo != nil {
			total += sel[i].weightSum(sh.st)
		} else {
			total += weightRun(sh.st.c.weight, sel[i].rowSet)
		}
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

// parallelMinRows is the selection size below which the aggregate runs
// on the calling goroutine whatever workers says: starting goroutines
// costs more than summing a few thousand rows.
const parallelMinRows = 4096

// aggregate is the aggregate kernel, the only one: the
// node-hour-weighted aggregate of metric m over the filtered rows. Each
// partition sums its selected rows into its own partial (sumRun — once
// per shard for a whole population, which the shard then remembers),
// the partials merge in partition order, and the second pass does the
// same for the squared deviations from the merged mean, over the rows
// every time: its terms depend on the request's mean. Partitions fan
// out over up to workers goroutines when the selection is large; every
// partition writes only its own slot and the merge is serial, so the
// bits do not depend on workers.
//
// Cancellation is cooperative: ctx is checked between partitions, so a
// fired ctx stops the work within one partition per worker and the call
// returns ctx's error, never a half-summed Agg. A nil ctx never
// cancels.
func (ss *ShardSet) aggregate(ctx context.Context, m Metric, f Filter, workers int) (Agg, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	parts, sel := ss.shards, ss.selectParts(f)
	defer ss.tally(sel)
	n := selTotal(sel)
	if n == 0 {
		return emptyAgg(), nil
	}
	if n < parallelMinRows {
		workers = 1
	}
	// A time window selects a run of adjacent day partitions; only the
	// run is visited (n > 0: some partition holds a selected row).
	for sel[0].len() == 0 {
		parts, sel = parts[1:], sel[1:]
	}
	for sel[len(sel)-1].len() == 0 {
		parts, sel = parts[:len(parts)-1], sel[:len(sel)-1]
	}
	partials := make([]aggPartial, len(parts))
	runChunks(done, len(parts), workers, func(i int) {
		st, s := parts[i].st, &sel[i]
		if s.memo != nil {
			partials[i] = s.partial(st, m)
			return
		}
		partials[i] = newPartial()
		if s.len() > 0 {
			sumRun(&partials[i], st.col(m), st.c.weight, s.rowSet)
		}
	})
	total := newPartial()
	for _, p := range partials {
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
		runChunks(done, len(parts), workers, func(i int) {
			if sel[i].len() > 0 {
				partials[i].ss = devRun(mean, parts[i].st.col(m), parts[i].st.c.weight, sel[i].rowSet)
			}
		})
		var dev float64
		for _, p := range partials {
			dev += p.ss
		}
		agg.StdDev = math.Sqrt(dev / total.sw)
	}
	// A fired ctx may have skipped partitions: the partials are meaningless.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Agg{}, err
		}
	}
	return agg, nil
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
	parts, sel := ss.shards, ss.selectParts(f)
	defer ss.tally(sel)
	if len(parts) > 0 && parts[0].st.c.KeyColumn(k) == nil {
		return groupAll(parts, sel, metrics)
	}
	stride := 1 + len(metrics)
	codes := 0 // the largest dictionary among the partitions holding a selected row
	for pi, sh := range parts {
		if sel[pi].len() > 0 {
			codes = max(codes, len(sh.st.c.KeyColumn(k).Values))
		}
	}
	total := groupSums{stride, make([]int, 0, codes), make([]float64, 0, codes*stride)}
	keys := make([]string, 0, codes)
	slotOf := make(map[string]int, codes)
	// add merges one code's partition sums l into its key's total.
	add := func(key string, n int, l []float64) {
		if s, ok := slotOf[key]; ok {
			total.n[s] += n
			t := total.at(s)
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
	// local is all zero between partitions: merging a code clears it.
	local := newGroupSums(stride, codes)
	cols := make([][]float64, 2*len(metrics))
	cols, swx := cols[:len(metrics)], cols[len(metrics):] // metric columns to fold; remembered sums by code
	gathered := make([]float64, stride)                   // one code's remembered sums
	for pi, sh := range parts {
		s := &sel[pi]
		if s.len() == 0 {
			continue
		}
		st := sh.st
		kc := st.c.KeyColumn(k)
		// merge adds one code's sums in local to its key's total and
		// clears them.
		merge := func(code uint32) {
			if n := local.n[code]; n != 0 {
				l := local.at(int(code))
				add(kc.Values[code], n, l)
				local.n[code] = 0
				clear(l)
			}
		}
		if s.memo != nil {
			ns, sw, folded := s.groupSlots(st, k, metrics, local, cols, swx)
			if folded {
				// First touch: what was just folded and remembered is
				// still in local. A whole population touches most of
				// the dictionary, so sweep it.
				for code := range kc.Values {
					merge(uint32(code))
				}
				continue
			}
			for code, n := range ns {
				if n == 0 {
					continue // a value no row of the population carries
				}
				gathered[0] = sw[code]
				for j, sums := range swx {
					gathered[1+j] = sums[code]
				}
				add(kc.Values[code], n, gathered)
			}
			continue
		}
		for j, m := range metrics {
			cols[j] = st.col(m)
		}
		groupRun(local, kc.Codes, s.rowSet, st.c.weight, cols)
		// Visit the touched codes through the row ids, not by sweeping
		// the whole dictionary for a handful of rows: a code merges on
		// first sight.
		for _, r := range s.idx {
			merge(kc.Codes[r])
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
func groupAll(parts []*Shard, sel []shardSel, metrics []Metric) []Group {
	if selTotal(sel) == 0 {
		return []Group{}
	}
	swx := make([]float64, len(metrics))
	for j, m := range metrics {
		for i, sh := range parts {
			s := &sel[i]
			switch {
			case s.len() == 0:
			case s.memo != nil:
				swx[j] += s.partial(sh.st, m).swx
			default:
				p := newPartial()
				sumRun(&p, sh.st.col(m), sh.st.c.weight, s.rowSet)
				swx[j] += p.swx
			}
		}
	}
	return []Group{newGroup("", selTotal(sel), sumWeights(parts, sel), swx, metrics)}
}

// runChunks executes fn(c) for every chunk index, on up to workers
// goroutines. Chunk assignment is work-stealing (atomic counter) but
// since each chunk writes only its own slot, the outcome is
// deterministic regardless of scheduling. A non-nil done channel is
// polled between chunks: once it fires, no further chunks start
// (chunks already running finish), so a cancelled aggregation stops
// within one chunk's worth of work per worker.
func runChunks(done <-chan struct{}, chunks, workers int, fn func(c int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			if chunkCancelled(done) {
				return
			}
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if chunkCancelled(done) {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// chunkCancelled reports whether done has fired; a nil done never
// cancels and costs only a nil check.
func chunkCancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
