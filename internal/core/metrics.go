package core

import (
	"math"
	"sort"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// MetricPair is an ordered pair of metric names.
type MetricPair struct {
	A, B store.Metric
}

// CorrelationMatrix computes the Pearson correlation of every metric
// pair over the realm's jobs — the analysis behind §4.2's selection of
// the eight-metric independent set ("we found that there are many highly
// correlated or anti-correlated metrics, such as cpu user is negatively
// correlated to cpu idle, or net ib rx is positively correlated to
// net ib tx").
func (r *Realm) CorrelationMatrix(metrics []store.Metric) map[MetricPair]float64 {
	return r.correlations(metrics, stats.Pearson)
}

// CorrelationMatrixRank is CorrelationMatrix with Spearman rank
// correlation — robust to the heavy-tailed metric distributions, used
// to cross-check that the §4.2 redundancy conclusions are not artifacts
// of outliers.
func (r *Realm) CorrelationMatrixRank(metrics []store.Metric) map[MetricPair]float64 {
	return r.correlations(metrics, stats.Spearman)
}

// correlations is corr of every metric pair over the realm's jobs.
func (r *Realm) correlations(metrics []store.Metric, corr func(xs, ys []float64) float64) map[MetricPair]float64 {
	sel := r.Store.Scan(r.JobFilter())
	cols := make(map[store.Metric][]float64, len(metrics))
	for _, m := range metrics {
		cols[m] = sel.Values(m)
	}
	out := make(map[MetricPair]float64)
	for i, a := range metrics {
		for _, b := range metrics[i+1:] {
			out[MetricPair{a, b}] = corr(cols[a], cols[b])
		}
	}
	return out
}

// Correlation looks up a pair in either order.
func Correlation(m map[MetricPair]float64, a, b store.Metric) float64 {
	if v, ok := m[MetricPair{a, b}]; ok {
		return v
	}
	if v, ok := m[MetricPair{b, a}]; ok {
		return v
	}
	return math.NaN()
}

// SelectIndependent greedily picks a maximal set of metrics whose
// pairwise |correlation| stays below the threshold, reproducing §4.2's
// "smallest independent set of metrics that describe the execution
// behavior of the job mix". Candidates are considered in the given
// order, so callers can prioritize (e.g. the paper keeps cpu_idle over
// cpu_user).
func SelectIndependent(matrix map[MetricPair]float64, candidates []store.Metric, threshold float64) []store.Metric {
	var picked []store.Metric
	for _, c := range candidates {
		ok := true
		for _, p := range picked {
			rho := Correlation(matrix, c, p)
			if !math.IsNaN(rho) && math.Abs(rho) >= threshold {
				ok = false
				break
			}
		}
		if ok {
			picked = append(picked, c)
		}
	}
	return picked
}

// CorrelatedPairs lists pairs with |rho| >= threshold, strongest first —
// the redundancy evidence quoted in §4.2.
func CorrelatedPairs(matrix map[MetricPair]float64, threshold float64) []MetricPair {
	var out []MetricPair
	for p, rho := range matrix {
		if !math.IsNaN(rho) && math.Abs(rho) >= threshold {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri := math.Abs(matrix[out[i]])
		rj := math.Abs(matrix[out[j]])
		if ri != rj {
			return ri > rj
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
