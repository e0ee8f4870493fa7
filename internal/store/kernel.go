package store

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The query engine (DESIGN.md §11, §14.3): one kernel per Reader method,
// written over an ordered list of partitions. The logical row space is
// the concatenation of the partitions in list order, rows in their
// original order within each; every kernel visits the selected rows in
// that global order with accumulators carried across partition
// boundaries, so the answer depends on the row sequence alone — never
// on where it is cut. A *ShardSet passes its day shards; a *Store
// passes itself as the one-partition list.

// shardSel is one partition's selection with its place in the global
// selected sequence: end counts the selected rows of this and every
// earlier partition, so the partition's rows sit at [end-len(), end).
type shardSel struct {
	rowSet
	end int
}

// selTotal is the number of rows selected across all partitions.
func selTotal(sel []shardSel) int {
	if len(sel) == 0 {
		return 0
	}
	return sel[len(sel)-1].end
}

// selectParts evaluates the filter per partition, time-pruning whole
// partitions first; per-partition compilation then prunes dictionary
// misses (compile's impossible flag) without scanning. pruned counts
// the partitions answered without touching any row data.
func selectParts(parts []*Store, f Filter) (sel []shardSel, pruned int) {
	sel = make([]shardSel, len(parts))
	end := 0
	for i, st := range parts {
		if st.canMatch(f) {
			sel[i].rowSet = st.selectSet(f)
		} else {
			pruned++
		}
		end += sel[i].len()
		sel[i].end = end
	}
	return sel, pruned
}

// walkRange visits selected positions [lo,hi) of the global sequence:
// fn runs once per covered partition, in order, with that partition's
// selection and the [a,b) positions of it to consume. A 4096-row chunk
// may span a partition boundary; its accumulator simply carries over.
func walkRange(parts []*Store, sel []shardSel, lo, hi int, fn func(st *Store, rs rowSet, a, b int)) {
	si := sort.Search(len(sel), func(k int) bool { return sel[k].end > lo })
	for pos := lo; pos < hi && si < len(sel); si++ {
		n := sel[si].len()
		if n == 0 {
			continue
		}
		base := sel[si].end - n
		b := min(sel[si].end, hi) - base
		fn(parts[si], sel[si].rowSet, pos-base, b)
		pos = base + b
	}
}

// selectRows returns the global row indices passing the filter,
// ascending; nil when none do.
func selectRows(parts []*Store, f Filter) []int {
	sel, _ := selectParts(parts, f)
	if selTotal(sel) == 0 {
		return nil
	}
	out := make([]int, 0, selTotal(sel))
	base := 0
	for i, st := range parts {
		rs := sel[i].rowSet
		for j, n := 0, rs.len(); j < n; j++ {
			out = append(out, base+rs.row(j))
		}
		base += st.Len()
	}
	return out
}

// selectRecords materializes the records passing the filter.
func selectRecords(parts []*Store, f Filter) []JobRecord {
	sel, _ := selectParts(parts, f)
	out := make([]JobRecord, 0, selTotal(sel))
	for i, st := range parts {
		rs := sel[i].rowSet
		for j, n := 0, rs.len(); j < n; j++ {
			out = append(out, st.Record(rs.row(j)))
		}
	}
	return out
}

// selectValues extracts metric m for the filtered rows, paired with
// node-hour weights (for weighted statistics and KDE inputs). An
// all-rows partition is two contiguous copies.
func selectValues(parts []*Store, m Metric, f Filter) (vals, weights []float64) {
	sel, _ := selectParts(parts, f)
	if selTotal(sel) == 0 {
		return nil, nil
	}
	vals = make([]float64, selTotal(sel))
	weights = make([]float64, selTotal(sel))
	for i, st := range parts {
		rs := sel[i].rowSet
		col, weight := st.col(m), st.c.weight
		v, w := vals[sel[i].end-rs.len():sel[i].end], weights[sel[i].end-rs.len():sel[i].end]
		if rs.all {
			copy(v, col[:rs.n])
			copy(w, weight[:rs.n])
			continue
		}
		for j, r := range rs.idx {
			v[j] = col[r]
			w[j] = weight[r]
		}
	}
	return vals, weights
}

// Selection is a filter's result left in place: which rows of which
// partition passed, nothing copied out of the columns. Whole-realm
// analyses read the columns they need through Walk instead of
// materializing a JobRecord per row.
type Selection struct {
	parts []*Store
	sel   []shardSel
}

// Rows is one partition's selected row ids, ascending.
type Rows struct{ rs rowSet }

// Len returns how many rows of the partition are selected.
func (r Rows) Len() int { return r.rs.len() }

// At returns the j'th selected row id, an index into the partition's
// columns.
func (r Rows) At(j int) int { return r.rs.row(j) }

// scanParts evaluates the filter into a Selection.
func scanParts(parts []*Store, f Filter) Selection {
	sel, _ := selectParts(parts, f)
	return Selection{parts: parts, sel: sel}
}

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
	for i, st := range s.parts {
		if s.sel[i].len() > 0 {
			fn(&st.c, Rows{s.sel[i].rowSet})
		}
	}
}

// totalNodeHours sums weights over the filtered rows.
func totalNodeHours(parts []*Store, f Filter) float64 {
	sel, _ := selectParts(parts, f)
	return sumWeights(parts, sel)
}

// sumWeights adds the selection's node-hour weights into one running
// sum in global row order.
func sumWeights(parts []*Store, sel []shardSel) float64 {
	var sw float64
	for i, st := range parts {
		rs := sel[i].rowSet
		if rs.all {
			for _, w := range st.c.weight[:rs.n] {
				sw += w
			}
			continue
		}
		for _, r := range rs.idx {
			sw += st.c.weight[r]
		}
	}
	return sw
}

// aggPartial is one accumulator's running sums: a 4096-row chunk's in
// the chunked kernel, the whole selection's in the serial one.
type aggPartial struct {
	sw, swx, plain float64
	min, max       float64
	ss             float64 // second pass only
}

// sumRun folds selected positions [a,b) of one partition into p, in
// ascending order. The two arms — the contiguous sweep of an all-rows
// selection and the index-indirect sweep — perform the same operations
// on the same rows in the same order, so they are bit-identical
// whenever they see the same selection; the contiguous arm just reads
// two sequential streams with no row-id indirection.
func sumRun(p *aggPartial, col, weight []float64, rs rowSet, a, b int) {
	sw, swx, plain, lo, hi := p.sw, p.swx, p.plain, p.min, p.max
	if rs.all {
		for i := a; i < b; i++ {
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
		for _, i := range rs.idx[a:b] {
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

// devRun is the second pass over the same positions: it returns ss
// plus the weighted squared deviations from mean, added in row order.
func devRun(ss, mean float64, col, weight []float64, rs rowSet, a, b int) float64 {
	if rs.all {
		for i := a; i < b; i++ {
			d := col[i] - mean
			ss += weight[i] * d * d
		}
		return ss
	}
	for _, i := range rs.idx[a:b] {
		d := col[i] - mean
		ss += weight[i] * d * d
	}
	return ss
}

// aggFromSums turns the first pass's sums over n > 0 selected rows into
// an Agg, leaving StdDev for the second pass. Zero total weight has no
// weighted mean: Mean and StdDev stay NaN and no second pass runs.
func aggFromSums(n int, p aggPartial) Agg {
	agg := Agg{
		N: n, NodeHours: p.sw, Min: p.min, Max: p.max,
		UnweightedMean: p.plain / float64(n),
		Mean:           math.NaN(), StdDev: math.NaN(),
	}
	if p.sw != 0 {
		agg.Mean = p.swx / p.sw
	}
	return agg
}

// emptyAgg is the aggregate of an empty selection.
func emptyAgg() Agg {
	nan := math.NaN()
	return Agg{Mean: nan, StdDev: nan, Min: nan, Max: nan, UnweightedMean: nan}
}

// sumSel folds the whole selection into p, in global row order.
func sumSel(p *aggPartial, parts []*Store, sel []shardSel, m Metric) {
	for i, st := range parts {
		if n := sel[i].len(); n > 0 {
			sumRun(p, st.col(m), st.c.weight, sel[i].rowSet, 0, n)
		}
	}
}

// aggregateSerial computes the node-hour-weighted aggregate of metric m
// over the filtered rows with one running accumulator, strictly in
// global row order.
func aggregateSerial(parts []*Store, m Metric, f Filter) Agg {
	sel, _ := selectParts(parts, f)
	if selTotal(sel) == 0 {
		return emptyAgg()
	}
	p := aggPartial{min: math.Inf(1), max: math.Inf(-1)}
	sumSel(&p, parts, sel, m)
	agg := aggFromSums(selTotal(sel), p)
	if p.sw == 0 {
		return agg
	}
	var ss float64
	for i, st := range parts {
		if n := sel[i].len(); n > 0 {
			ss = devRun(ss, agg.Mean, st.col(m), st.c.weight, sel[i].rowSet, 0, n)
		}
	}
	agg.StdDev = math.Sqrt(ss / p.sw)
	return agg
}

// aggChunk is the fixed accumulation granularity of the chunked
// aggregation path. Partials are computed per chunk and merged in chunk
// order, so the result is bit-identical for any worker count — the
// property the daemon's golden responses rely on.
const aggChunk = 4096

// aggregateChunked computes the same aggregate as aggregateSerial,
// accumulating in fixed-size chunks fanned out over up to workers
// goroutines: chunk c covers selected positions [c*4096, (c+1)*4096)
// of the global sequence, seeds min/max from its first selected value
// and merges in chunk order, so the result depends on neither the
// worker count nor the partitioning (only the last-ulp rounding differs
// from the serial kernel). workers <= 1 still uses the chunked
// accumulation, single-threaded.
//
// Cancellation is cooperative: the chunk scheduler checks ctx between
// chunks and abandons the aggregation once the deadline passes or the
// caller gives up, returning ctx's error instead of a half-summed Agg.
// The check never reorders or splits chunk accumulation, it only
// decides whether the next chunk runs. A nil ctx never cancels.
func aggregateChunked(ctx context.Context, parts []*Store, m Metric, f Filter, workers int) (Agg, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	sel, _ := selectParts(parts, f)
	n := selTotal(sel)
	if n == 0 {
		return emptyAgg(), nil
	}
	chunks := (n + aggChunk - 1) / aggChunk
	partials := make([]aggPartial, chunks)
	runChunks(done, chunks, workers, func(c int) {
		var p aggPartial
		first := true
		walkRange(parts, sel, c*aggChunk, min((c+1)*aggChunk, n), func(st *Store, rs rowSet, a, b int) {
			col := st.col(m)
			if first {
				p.min, p.max = col[rs.row(a)], col[rs.row(a)]
				first = false
			}
			sumRun(&p, col, st.c.weight, rs, a, b)
		})
		partials[c] = p
	})
	total := aggPartial{min: partials[0].min, max: partials[0].max}
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
	agg := aggFromSums(n, total)
	if total.sw != 0 {
		mean := agg.Mean
		runChunks(done, chunks, workers, func(c int) {
			var ss float64
			walkRange(parts, sel, c*aggChunk, min((c+1)*aggChunk, n), func(st *Store, rs rowSet, a, b int) {
				ss = devRun(ss, mean, st.col(m), st.c.weight, rs, a, b)
			})
			partials[c].ss = ss
		})
		var ss float64
		for _, p := range partials {
			ss += p.ss
		}
		agg.StdDev = math.Sqrt(ss / total.sw)
	}
	// A fired ctx may have skipped chunks: the partials are meaningless.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Agg{}, err
		}
	}
	return agg, nil
}

// groupAcc is one group-by key's running sums.
type groupAcc struct {
	key string
	n   int
	sw  float64
	swx []float64 // parallel to metrics
}

// groupRows computes node-hour-weighted means of the metrics per group
// over the filtered rows, sorted by descending node-hours. Accumulation
// runs in global row order into one slot per distinct key, so every
// key's running sums see their rows in that order. No row pays a string
// lookup: the first partition's dictionary codes are the slot numbers
// (so a one-partition store runs the direct code-indexed loop; sending
// it through a table too measured 15% slower on a 100k-row group-by),
// and each later partition — its dictionary is independent — routes its
// codes through a code→slot table resolved from the key strings before
// its row loop.
func groupRows(parts []*Store, k GroupKey, metrics []Metric, f Filter) []Group {
	sel, _ := selectParts(parts, f)
	if len(parts) > 0 && parts[0].keyColumn(k) == nil {
		return groupAll(parts, sel, metrics)
	}
	nm := len(metrics)
	var accs []groupAcc
	var slotOf map[string]int32 // key → slot, built when a second partition needs it
	slot := func(key string) int32 {
		s, ok := slotOf[key]
		if !ok {
			s = int32(len(accs))
			slotOf[key] = s
			accs = append(accs, groupAcc{key: key, swx: make([]float64, nm)})
		}
		return s
	}
	var table []int32 // this partition's dictionary code → slot+1; 0 = unresolved
	cols := make([][]float64, nm)
	for pi, st := range parts {
		rs := sel[pi].rowSet
		if rs.len() == 0 {
			continue
		}
		kc := st.keyColumn(k)
		for j, m := range metrics {
			cols[j] = st.col(m)
		}
		if accs == nil {
			accs = make([]groupAcc, len(kc.Values))
			sums := make([]float64, len(kc.Values)*nm)
			for s, key := range kc.Values {
				accs[s] = groupAcc{key: key, swx: sums[s*nm : (s+1)*nm]}
			}
			groupRun(accs, nil, kc.Codes, rs, st.c.weight, cols)
			continue
		}
		if slotOf == nil {
			slotOf = make(map[string]int32, len(accs))
			for s := range accs {
				slotOf[accs[s].key] = int32(s)
			}
		}
		// Resolve every code the selection holds before the row loop, which
		// then has no call and no growing slice in it: all of them when
		// every row is selected, else on first sight over the row ids.
		table = append(table[:0], make([]int32, len(kc.Values))...)
		if rs.all {
			for code, key := range kc.Values {
				table[code] = slot(key) + 1
			}
		} else {
			for _, r := range rs.idx {
				if code := kc.Codes[r]; table[code] == 0 {
					table[code] = slot(kc.Values[code]) + 1
				}
			}
		}
		groupRun(accs, table, kc.Codes, rs, st.c.weight, cols)
	}
	out := make([]Group, 0, len(accs))
	for s := range accs {
		a := &accs[s]
		if a.n == 0 {
			continue // a dictionary value none of the selected rows carries
		}
		g := Group{Key: a.key, N: a.n, NodeHours: a.sw, Mean: make(map[Metric]float64, nm)}
		for mj, m := range metrics {
			if a.sw > 0 {
				g.Mean[m] = a.swx[mj] / a.sw
			} else {
				g.Mean[m] = math.NaN()
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

// groupRun folds one partition's selected rows into their keys' slots,
// in ascending row order. A nil table means the codes are the slots;
// otherwise table holds slot+1 for every code the selection carries.
func groupRun(accs []groupAcc, table []int32, codes []uint32, rs rowSet, weight []float64, cols [][]float64) {
	for j, n := 0, rs.len(); j < n; j++ {
		i := rs.row(j)
		s := codes[i]
		if table != nil {
			s = uint32(table[s] - 1)
		}
		a := &accs[s]
		w := weight[i]
		a.n++
		a.sw += w
		for mj, col := range cols {
			a.swx[mj] += w * col[i]
		}
	}
}

// groupAll handles an out-of-range GroupKey: every selected row lands
// in the "" bucket, whose sums per metric are the serial aggregate's
// first pass.
func groupAll(parts []*Store, sel []shardSel, metrics []Metric) []Group {
	if selTotal(sel) == 0 {
		return []Group{}
	}
	g := Group{Key: "", N: selTotal(sel), NodeHours: sumWeights(parts, sel), Mean: make(map[Metric]float64, len(metrics))}
	for _, m := range metrics {
		var p aggPartial
		sumSel(&p, parts, sel, m)
		if p.sw > 0 {
			g.Mean[m] = p.swx / p.sw
		} else {
			g.Mean[m] = math.NaN()
		}
	}
	return []Group{g}
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
