package stats

import (
	"math"
	"sort"
)

// KDE is a univariate Gaussian kernel density estimate. The paper's
// distribution figures (10 and 12) use R's kernel density rather than
// histograms "to avoid making binning choices"; R's default bandwidth
// family traces back to Scott (1992), which the paper cites, so Scott's
// rule is the default here.
type KDE struct {
	data      []float64 // sorted copy of the sample
	Bandwidth float64
}

// NewKDE builds a KDE over xs with Scott's-rule bandwidth. An explicit
// bandwidth can be set with NewKDEBandwidth. The sample is copied.
func NewKDE(xs []float64) *KDE {
	return NewKDEBandwidth(xs, ScottBandwidth(xs))
}

// NewKDEBandwidth builds a KDE with the given bandwidth (must be > 0 for
// meaningful output; non-positive bandwidths produce NaN densities).
func NewKDEBandwidth(xs []float64, bw float64) *KDE {
	data := make([]float64, len(xs))
	copy(data, xs)
	sort.Float64s(data)
	return &KDE{data: data, Bandwidth: bw}
}

// ScottBandwidth returns Scott's rule-of-thumb bandwidth
// h = sigma * n^(-1/5) * 1.06, using the robust sigma
// min(stddev, IQR/1.349) as in R's bw.nrd.
func ScottBandwidth(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	sd := StdDev(xs)
	iqr := Quantile(xs, 0.75) - Quantile(xs, 0.25)
	sigma := sd
	if iqr > 0 && iqr/1.349 < sigma {
		sigma = iqr / 1.349
	}
	if sigma == 0 {
		// Degenerate (constant) sample: fall back to a token width so
		// the density is a narrow spike rather than NaN everywhere.
		sigma = math.Max(math.Abs(xs[0])*1e-3, 1e-9)
	}
	return 1.06 * sigma * math.Pow(float64(n), -0.2)
}

const invSqrt2Pi = 0.3989422804014327

// Density evaluates the estimated density at x.
func (k *KDE) Density(x float64) float64 {
	n := len(k.data)
	if n == 0 || !(k.Bandwidth > 0) {
		return math.NaN()
	}
	h := k.Bandwidth
	// Kernel support is effectively +/- 8h; restrict the sum to that
	// window via binary search so evaluation over large samples stays
	// O(window) instead of O(n).
	lo := sort.SearchFloat64s(k.data, x-8*h)
	hi := sort.SearchFloat64s(k.data, x+8*h)
	var sum float64
	for _, xi := range k.data[lo:hi] {
		u := (x - xi) / h
		sum += math.Exp(-0.5 * u * u)
	}
	return sum * invSqrt2Pi / (float64(n) * h)
}

// CurvePoint is one evaluation of a density curve.
type CurvePoint struct {
	X, Density float64
}

// Curve evaluates the density on a uniform grid of points from lo to hi
// inclusive. points must be >= 2.
func (k *KDE) Curve(lo, hi float64, points int) []CurvePoint {
	if points < 2 || hi <= lo {
		return nil
	}
	out := make([]CurvePoint, points)
	step := (hi - lo) / float64(points-1)
	for i := range out {
		x := lo + float64(i)*step
		out[i] = CurvePoint{X: x, Density: k.Density(x)}
	}
	return out
}

// SupportCurve evaluates the density over the sample range extended by
// three bandwidths on each side, matching R's default "cut" behaviour.
func (k *KDE) SupportCurve(points int) []CurvePoint {
	if len(k.data) == 0 {
		return nil
	}
	lo := k.data[0] - 3*k.Bandwidth
	hi := k.data[len(k.data)-1] + 3*k.Bandwidth
	return k.Curve(lo, hi, points)
}

// Mode returns the grid point of maximum estimated density over the
// sample support (512-point grid, R's default resolution).
func (k *KDE) Mode() float64 {
	curve := k.SupportCurve(512)
	best := math.NaN()
	bestD := math.Inf(-1)
	for _, p := range curve {
		if p.Density > bestD {
			bestD = p.Density
			best = p.X
		}
	}
	return best
}

// Histogram is a fixed-width binned frequency count, retained alongside
// KDE for the report layer and for validating density shapes in tests.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram bins xs into bins equal-width buckets across [lo, hi).
// Values outside the range are clamped into the end bins so totals are
// preserved; a NaN belongs to no bin and is not counted, so N is always
// the sum of Counts. An empty or NaN range has no bins.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(lo < hi) {
		return &Histogram{Lo: lo, Hi: hi}
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue // int(NaN) is platform-defined
		}
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.N++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}
