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
	"sort"
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
// The input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice,
// avoiding the copy and sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
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
// sorts xs in place for the quantiles instead of sorting a copy. Mean
// and StdDev are taken first, over the caller's order, so the result
// is bit-identical to Summarize.
func SummarizeOwned(xs []float64) Describe {
	d := Describe{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		d.Mean, d.StdDev, d.Min, d.Q25, d.Median, d.Q75, d.Max = nan, nan, nan, nan, nan, nan, nan
		return d
	}
	d.Mean = Mean(xs)
	d.StdDev = StdDev(xs)
	sort.Float64s(xs)
	d.Min = xs[0]
	d.Max = xs[len(xs)-1]
	d.Q25 = quantileSorted(xs, 0.25)
	d.Median = quantileSorted(xs, 0.5)
	d.Q75 = quantileSorted(xs, 0.75)
	return d
}
