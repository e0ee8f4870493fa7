package store

import (
	"slices"
	"sync"
)

// What a shard remembers (DESIGN.md §11, §14.3). A shard is immutable
// and a sum is "each partition folds its selected rows serially, the
// partials merge in partition order" — so a partition's share of an
// answer over one of its whole populations is a fact about the shard,
// not about the request, and is computed once: the first kernel call
// that needs a slot fills it with the fold every walked partition runs
// (walkSet, sumRun, groupRun, in row order), concurrent first callers
// of the slot wait on that one fold, and every later call reads it. The
// key space is closed — numPops populations × NumMetrics metrics ×
// numGroupKeys keys — so there is nothing to size or evict, and nothing
// to invalidate: a shard adopted by the next generation keeps its memo,
// a repaired or rewritten day is a new Shard with an empty one.
//
// Not remembered: the aggregate's deviation pass, whose terms depend on
// the merged mean of the whole request.

// popMemo is what one shard remembers about one population.
type popMemo struct {
	// rows is the population's row set: popSampled's ascending row ids
	// (popAll's is implicit and never stored).
	rows struct {
		once sync.Once
		rs   rowSet
	}
	// nodeHours is the running sum of the rows' weights.
	nodeHours struct {
		once sync.Once
		sum  float64
	}
	// agg[MetricPos(m)] is sumRun's partial over the rows.
	agg [NumMetrics]struct {
		once sync.Once
		p    aggPartial
	}
	groups [numGroupKeys]groupMemo
}

// groupMemo is groupRun's result over the population for one key, held
// by column: per dictionary code the row count and weight sum, and per
// metric the weighted sums. Metrics fold independently of one another,
// so a request for any of them is assembled from their slots.
type groupMemo struct {
	base struct {
		once sync.Once
		n    []int
		sw   []float64
	}
	swx [NumMetrics]struct {
		once sync.Once
		sums []float64
	}
}

// The accessors are shardSel's: a selection that is one of its shard's
// whole populations (memo != nil) asks for the population's rows and
// sums here, and is marked walked when this call is the one that fills
// a slot.

// wholeRows makes s the selection of shard sh's population cf.whole.
func (s *shardSel) wholeRows(sh *Shard, cf *compiledFilter) {
	s.memo, s.use = sh.pop(cf.whole), partRemembered
	if cf.whole == popAll {
		s.rowSet = rowSet{all: true, n: sh.st.Len()}
		return
	}
	rows := &s.memo.rows
	rows.once.Do(func() {
		rows.rs = sh.st.walkSet(cf)
		s.use = partWalked
	})
	s.rowSet = rows.rs
}

// weightSum returns the population's node-hour total.
func (s *shardSel) weightSum(st *Store) float64 {
	slot := &s.memo.nodeHours
	slot.once.Do(func() { slot.sum = weightRun(st.c.weight, s.rowSet) })
	return slot.sum
}

// partial returns sumRun's partial of metric m over the population.
func (s *shardSel) partial(st *Store, m Metric) aggPartial {
	slot := &s.memo.agg[MetricPos(m)]
	slot.once.Do(func() {
		slot.p = newPartial()
		sumRun(&slot.p, st.col(m), st.c.weight, s.rowSet)
		s.use = partWalked
	})
	return slot.p
}

// groupSlots puts at swx[j] the population's per-code weighted sums of
// metrics[j] by key k and returns its per-code row counts and weight
// sums. Whatever of that is not yet remembered is filled from one
// groupRun over all the request's metrics — the walk an unremembered
// partition costs, taken at most once per call — into the caller's
// scratch, cols and local (all zero on entry); folded then says local
// holds the partition's sums, the caller's to merge and clear.
func (s *shardSel) groupSlots(st *Store, k GroupKey, metrics []Metric, local groupSums, cols, swx [][]float64) (n []int, sw []float64, folded bool) {
	gm := &s.memo.groups[k]
	kc := st.c.KeyColumn(k)
	fold := func() {
		if folded {
			return
		}
		for j, m := range metrics {
			cols[j] = st.col(m)
		}
		groupRun(local, kc.Codes, s.rowSet, st.c.weight, cols)
		folded, s.use = true, partWalked
	}
	codes := len(kc.Values)
	gm.base.once.Do(func() {
		fold()
		gm.base.n, gm.base.sw = slices.Clone(local.n[:codes]), local.column(0, codes)
	})
	for j, m := range metrics {
		slot := &gm.swx[MetricPos(m)]
		slot.once.Do(func() {
			fold()
			slot.sums = local.column(1+j, codes)
		})
		swx[j] = slot.sums
	}
	return gm.base.n, gm.base.sw, folded
}
