package reference

import (
	"math"
	"sort"

	"supremm/internal/stats"
)

// Summarize is stats.Summarize the naive way: mean and sample standard
// deviation in the input's order, then a sorted copy (sort.Float64s,
// NaNs first) read at both ends for Min and Max and interpolated
// between neighbours for each quartile (R type-7).
func Summarize(xs []float64) stats.Describe {
	nan := math.NaN()
	d := stats.Describe{N: len(xs), Mean: nan, StdDev: nan, Min: nan, Q25: nan, Median: nan, Q75: nan, Max: nan}
	n := len(xs)
	if n == 0 {
		return d
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	d.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			ss += (x - d.Mean) * (x - d.Mean)
		}
		d.StdDev = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d.Min, d.Max = sorted[0], sorted[n-1]
	quantile := func(q float64) float64 {
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
	d.Q25, d.Median, d.Q75 = quantile(0.25), quantile(0.5), quantile(0.75)
	return d
}
