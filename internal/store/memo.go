package store

import (
	"slices"
	"sync"
	"sync/atomic"
)

// What a shard remembers (DESIGN.md §11, §14.3). A shard is immutable
// and a sum is "each partition folds its selected rows serially, the
// partials merge in partition order" — so a partition's share of an
// answer over one of its whole populations is a fact about the shard,
// not about the request, and is computed once: the first kernel call
// that needs a slot fills it with the fold every walked partition runs
// (walkSet, sumRun, groupRun, weightRun, in row order), concurrent
// first callers of the slot wait on that one fold, and every later call
// reads it. The key space is closed — numPops populations × NumMetrics
// metrics × numGroupKeys keys — so there is nothing to size or evict,
// and nothing to invalidate: a shard adopted by the next generation
// keeps its memo, a repaired or rewritten day is a new Shard with an
// empty one.
//
// Not remembered: the aggregate's deviation pass, whose terms depend on
// the merged mean of the whole request.

// Slot is one remembered value; the zero Slot is empty. The first
// caller to find it empty fills it under its lock, concurrent first
// callers wait on that one fill, and it counts as filled only once the
// fill has returned: a fill that panics leaves the slot empty, for the
// next caller to retry, never half-written. A Slot must not be copied.
type Slot[T any] struct {
	done atomic.Bool
	mu   sync.Mutex
	v    T
}

// Get returns the slot's value, filling it first if it is empty.
func (s *Slot[T]) Get(fill func() T) T {
	if !s.done.Load() {
		s.fill(fill)
	}
	return s.v
}

// filled is 1 once the slot holds its value, else 0.
func (s *Slot[T]) filled() int {
	if s.done.Load() {
		return 1
	}
	return 0
}

func (s *Slot[T]) fill(fill func() T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done.Load() {
		s.v = fill()
		s.done.Store(true)
	}
}

// popMemo is what one shard remembers about one population.
type popMemo struct {
	// rows is the population's ascending row ids.
	rows      Slot[[]int32]
	nodeHours Slot[float64]
	// agg[MetricPos(m)] is sumRun's partial over the rows.
	agg    [NumMetrics]Slot[aggPartial]
	groups [numGroupKeys]groupMemo
}

// groupMemo is groupRun's result over the population for one key, held
// by column. Metrics fold independently of one another, so a request
// for any of them is assembled from their slots.
type groupMemo struct {
	base Slot[groupBase]
	swx  [NumMetrics]Slot[[]float64] // per code, by MetricPos
}

// groupBase is per dictionary code the row count and weight sum, and
// the codes that took a row.
type groupBase struct {
	n     []int
	sw    []float64
	codes []uint32
}

// MemoSlots counts the memo slots the shard has filled over both of its
// populations (/debug/shards).
func (sh *Shard) MemoSlots() int {
	n := 0
	for i := range sh.memo {
		if m := sh.memo[i].Load(); m != nil {
			n += m.rows.filled() + m.nodeHours.filled()
			for j := range m.agg {
				n += m.agg[j].filled()
			}
			for k := range m.groups {
				n += m.groups[k].base.filled()
				for j := range m.groups[k].swx {
					n += m.groups[k].swx[j].filled()
				}
			}
		}
	}
	return n
}

// The seam: a shardSel hands out its partition's share of an answer
// only through wholeRows, nodeHours, partial and groups. Each reads or
// fills its population's slot when the selection is whole (memo !=
// nil), and folds the selected rows just now otherwise; a fill marks
// the partition walked. Either way the same fold over the same rows
// produced the bits, so the kernels only merge.

// wholeRows makes s the selection of shard sh's population cf.whole.
func (s *shardSel) wholeRows(sh *Shard, cf *compiledFilter) {
	s.memo, s.use = sh.pop(cf.whole), partRemembered
	s.rows = s.memo.rows.Get(func() []int32 {
		rows := sh.walkSet(cf)
		s.use = partWalked
		return rows
	})
}

// nodeHours is the running sum of the selected rows' weights.
func (s *shardSel) nodeHours() float64 {
	if s.memo == nil {
		return weightRun(s.c.weight, s.rows)
	}
	return s.memo.nodeHours.Get(func() float64 {
		sw := weightRun(s.c.weight, s.rows)
		s.use = partWalked
		return sw
	})
}

// partial is sumRun's partial of metric m over the selected rows.
func (s *shardSel) partial(m Metric) aggPartial {
	if s.memo == nil {
		return s.sum(m)
	}
	return s.memo.agg[MetricPos(m)].Get(func() aggPartial {
		p := s.sum(m)
		s.use = partWalked
		return p
	})
}

func (s *shardSel) sum(m Metric) aggPartial {
	p := newPartial()
	sumRun(&p, s.c.Metric(m), s.c.weight, s.rows)
	return p
}

// codeSums is one partition's share of a group-by, by its dictionary
// codes: n[c] rows took code c, and sums[j][c*stride] is their weight
// sum (j = 0) or their weighted sum of the request's metric j-1.
// codes lists each code that took a row once.
type codeSums struct {
	n      []int
	sums   [][]float64
	stride int
	codes  []uint32
}

// groupScratch is one group-by call's scratch, sized for the largest
// dictionary it meets: the sums a fold writes (all zero but at the
// codes the last fold touched), the metric columns to fold, and the
// columns of the codeSums handed out.
type groupScratch struct {
	sums  groupSums
	codes []uint32
	cols  [][]float64
	view  [][]float64
}

func newGroupScratch(metrics, codes int) groupScratch {
	stride := 1 + metrics
	return groupScratch{
		sums:  newGroupSums(stride, codes),
		codes: make([]uint32, 0, codes),
		cols:  make([][]float64, metrics),
		view:  make([][]float64, stride),
	}
}

// groups is the partition's sums by key k for the metrics. Whatever of
// a whole population's answer is not yet remembered is filled from one
// groupRun over all the request's metrics, taken at most once per
// call.
func (s *shardSel) groups(k GroupKey, metrics []Metric, sc *groupScratch) codeSums {
	kc := s.c.KeyColumn(k)
	if s.memo == nil {
		s.fold(kc, metrics, sc)
		for j := range sc.view {
			sc.view[j] = sc.sums.sums[j:]
		}
		return codeSums{sc.sums.n, sc.view, sc.sums.stride, sc.codes}
	}
	gm := &s.memo.groups[k]
	folded := false
	fold := func() {
		if !folded {
			s.fold(kc, metrics, sc)
			folded, s.use = true, partWalked
		}
	}
	codes := len(kc.Values)
	base := gm.base.Get(func() groupBase {
		fold()
		return groupBase{slices.Clone(sc.sums.n[:codes]), sc.sums.column(0, codes), slices.Clone(sc.codes)}
	})
	sc.view[0] = base.sw
	for j, m := range metrics {
		sc.view[1+j] = gm.swx[MetricPos(m)].Get(func() []float64 {
			fold()
			return sc.sums.column(1+j, codes)
		})
	}
	return codeSums{base.n, sc.view, 1, base.codes}
}

// fold runs groupRun over the selected rows into sc, first clearing
// what the previous fold left there.
func (s *shardSel) fold(kc *DictColumn, metrics []Metric, sc *groupScratch) {
	for _, c := range sc.codes {
		sc.sums.n[c] = 0
		clear(sc.sums.at(int(c)))
	}
	for j, m := range metrics {
		sc.cols[j] = s.c.Metric(m)
	}
	groupRun(sc.sums, kc.Codes, s.rows, s.c.weight, sc.cols)
	// The codes that took a row: a sweep of the counts when the rows
	// outnumber the dictionary, else the rows' own codes, sorted and
	// deduplicated.
	sc.codes = sc.codes[:0]
	if len(s.rows) >= len(kc.Values) {
		for c, n := range sc.sums.n[:len(kc.Values)] {
			if n != 0 {
				sc.codes = append(sc.codes, uint32(c))
			}
		}
	} else {
		for _, r := range s.rows {
			sc.codes = append(sc.codes, kc.Codes[r])
		}
		slices.Sort(sc.codes)
		sc.codes = slices.Compact(sc.codes)
	}
}
