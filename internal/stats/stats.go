// Package stats provides the statistical machinery used by the SUPReMM
// analytics layer: weighted and unweighted moments, Pearson correlation,
// ordinary least squares with significance tests, Gaussian kernel density
// estimation with Scott's-rule bandwidth, histograms, quantiles and
// autocorrelation.
//
// All routines are deterministic, allocation-conscious and operate on
// float64 slices. NaN handling policy: inputs containing NaN produce NaN
// outputs rather than panicking, mirroring the behaviour of R, which the
// paper used for its density plots.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
)

// ErrEmpty is returned by routines that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// ErrLength is returned when paired slices differ in length.
var ErrLength = errors.New("stats: mismatched input lengths")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedMean returns sum(w_i*x_i)/sum(w_i). Weights must be non-negative;
// a zero total weight yields NaN.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 {
		return math.NaN()
	}
	var sw, swx float64
	for i, x := range xs {
		sw += ws[i]
		swx += ws[i] * x
	}
	if sw == 0 {
		return math.NaN()
	}
	return swx / sw
}

// Variance returns the unbiased (n-1 denominator) sample variance.
// Inputs with fewer than two observations yield NaN.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopVariance returns the population (n denominator) variance.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// PopStdDev returns the population standard deviation.
func PopStdDev(xs []float64) float64 { return math.Sqrt(PopVariance(xs)) }

// WeightedVariance returns the weighted population variance
// sum(w_i*(x_i-mu)^2)/sum(w_i) about the weighted mean.
func WeightedVariance(xs, ws []float64) float64 {
	if len(xs) != len(ws) || len(xs) == 0 {
		return math.NaN()
	}
	mu := WeightedMean(xs, ws)
	var sw, ss float64
	for i, x := range xs {
		d := x - mu
		sw += ws[i]
		ss += ws[i] * d * d
	}
	if sw == 0 {
		return math.NaN()
	}
	return ss / sw
}

// CoefficientOfVariation returns stddev/mean, the paper's dispersion
// measure used to order the predictability of metrics (§4.3.4).
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// MinMax returns the smallest and largest numbers in xs, ignoring NaN
// wherever it sits (the ±Inf seeds never compare with one); NaN, NaN
// when xs holds no number.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo > hi {
		return math.NaN(), math.NaN()
	}
	return lo, hi
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (R type-7, the R default).
// The input need not be sorted, and is left as it was; a NaN in it
// ranks below every number, where sort.Float64s puts it.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || !(q >= 0 && q <= 1) {
		return math.NaN()
	}
	s := newSelection(append([]float64(nil), xs...))
	return s.quantile(q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice,
// avoiding the copy and the selection.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || !(q >= 0 && q <= 1) {
		return math.NaN()
	}
	return quantile(len(sorted), q, func(k int) float64 { return sorted[k] })
}

// quantile is the type-7 quantile q of n ascending values, of which
// at(k) returns the one at rank k, asked in non-decreasing order. At
// frac 0 it still reads rank i+1, so a −Inf there makes NaN (0·Inf).
func quantile(n int, q float64, at func(int) float64) float64 {
	if n == 1 {
		return at(0)
	}
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return at(n - 1)
	}
	frac := h - float64(i)
	lo := at(i)
	hi := at(i + 1)
	return lo + frac*(hi-lo)
}

// OrderStatOwned returns the value sort.Float64s would put at xs[k],
// for a caller that is done with xs: it reorders xs in place, by
// selection rather than a sort.
func OrderStatOwned(xs []float64, k int) float64 {
	s := newSelection(xs)
	return s.at(k)
}

// selection answers order statistics of xs — the value sort.Float64s
// would put at a rank, NaNs first — by partitioning xs in place. Ranks
// must be asked for in non-decreasing order (asking again for one
// asked before is fine): each selection works on the part above the
// rank asked before, which earlier ones left in place.
type selection struct {
	xs   []float64
	nans int // xs[:nans] is every NaN of xs
	// lo is where the unplaced part begins: no value of xs[lo:] is
	// below one before it, and every rank asked below lo is in place.
	lo int
}

// newSelection moves xs's NaNs to its front.
func newSelection(xs []float64) selection {
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	return selection{xs: xs, nans: nans, lo: nans}
}

// at returns the value at rank k. The largest rank is a scan for the
// greatest number (NaN when every value is one), and so is the least
// unplaced one for the least number: rank i+1, asked after rank i, costs
// a scan, not a second selection.
func (s *selection) at(k int) float64 {
	xs := s.xs
	switch {
	case k == len(xs)-1:
		if s.nans == len(xs) {
			return math.NaN()
		}
		m := xs[s.nans]
		for _, x := range xs[s.nans+1:] {
			if x > m {
				m = x
			}
		}
		return m
	case k == s.lo:
		m := k
		for j := k + 1; j < len(xs); j++ {
			if xs[j] < xs[m] {
				m = j
			}
		}
		xs[k], xs[m] = xs[m], xs[k]
		s.lo = k + 1
	case k > s.lo:
		selectRank(xs[s.lo:], k-s.lo)
		s.lo = k + 1
	}
	return xs[k]
}

// quantile is Quantile over the selection's values.
func (s *selection) quantile(q float64) float64 {
	return quantile(len(s.xs), q, s.at)
}

// selectRank moves the k-th smallest value of xs, which holds no NaN,
// to xs[k], with no greater value before it and no smaller one after.
// It is Hoare's partition about a median of three: a run of values
// equal to the pivot is split down the middle, so ties — runtimes
// repeat heavily — cost no more than distinct values. An input that
// keeps defeating the pivot is sorted after 2·log₂n rounds instead.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); hi > lo; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		i, j := lo-1, hi+1
		for {
			for i++; xs[i] < p; i++ {
			}
			for j--; p < xs[j]; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples xs, ys. Returns NaN if either sample is constant or
// the lengths mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Autocorrelation returns the lag-k autocorrelation of the series xs,
// computed about the global mean with the biased (n denominator)
// normalization that guarantees |rho| <= 1 (the standard time-series
// estimator). Lag 0 returns 1. Lags >= len(xs) return NaN.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return math.NaN()
	}
	if lag == 0 {
		return 1
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return math.NaN()
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// OffsetDiffStdDev returns the standard deviation of the lagged
// differences x(t+lag) - x(t). This is the raw ingredient of the paper's
// persistence statistic (§4.3.4, Table 1).
func OffsetDiffStdDev(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return math.NaN()
	}
	diffs := make([]float64, 0, n-lag)
	for i := 0; i+lag < n; i++ {
		diffs = append(diffs, xs[i+lag]-xs[i])
	}
	return PopStdDev(diffs)
}

// PersistenceRatio returns the paper's persistence statistic for a series
// at a given lag: the offset-difference standard deviation normalized so
// that a fully decorrelated series yields 1.0 and a perfectly persistent
// series yields 0.0. As documented in DESIGN.md §2, the paper's Table 1
// converges to 1.0 at large offsets, which corresponds to
// stddev(diff)/(sqrt(2)*sigma) = sqrt(1 - rho(lag)) rather than the
// literal stddev ratio (which converges to sqrt(2)).
func PersistenceRatio(xs []float64, lag int) float64 {
	sigma := PopStdDev(xs)
	if sigma == 0 || math.IsNaN(sigma) {
		return math.NaN()
	}
	return OffsetDiffStdDev(xs, lag) / (math.Sqrt2 * sigma)
}

// Standardize returns (xs - mean)/stddev as a new slice.
func Standardize(xs []float64) []float64 {
	m, s := Mean(xs), StdDev(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = (x - m) / s
	}
	return out
}

// Describe bundles the summary statistics reported throughout §4.
type Describe struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q25    float64
	Median float64
	Q75    float64
	Max    float64
}

// Summarize computes a Describe for xs.
func Summarize(xs []float64) Describe {
	return SummarizeOwned(append([]float64(nil), xs...))
}

// SummarizeOwned is Summarize for a caller that is done with xs: it
// reorders xs in place for the order statistics instead of copying it.
// Mean and StdDev are taken first, over the caller's order, so the
// result is bit-identical to Summarize. Min and Max are scans, and each
// quartile selects its two ranks in the part above the one before, so
// nothing is sorted; every field is what sorting xs would give.
func SummarizeOwned(xs []float64) Describe {
	d := Describe{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		d.Mean, d.StdDev, d.Min, d.Q25, d.Median, d.Q75, d.Max = nan, nan, nan, nan, nan, nan, nan
		return d
	}
	d.Mean = Mean(xs)
	d.StdDev = StdDev(xs)
	s := newSelection(xs)
	d.Min = s.at(0)
	d.Q25 = s.quantile(0.25)
	d.Median = s.quantile(0.5)
	d.Q75 = s.quantile(0.75)
	d.Max = s.at(len(xs) - 1)
	return d
}
