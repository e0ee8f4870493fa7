package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0, 0, 0, 0}, 0},
		{nil, math.NaN()},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{1, 3}, []float64{1, 1}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("equal weights: got %v", got)
	}
	if got := WeightedMean([]float64{1, 3}, []float64{3, 1}); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("unequal weights: got %v", got)
	}
	if got := WeightedMean([]float64{1, 3}, []float64{0, 0}); !math.IsNaN(got) {
		t.Errorf("zero weights should be NaN, got %v", got)
	}
	if got := WeightedMean([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("length mismatch should be NaN, got %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known example: population variance 4, sample variance 32/7.
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("PopVariance = %v, want 4", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := PopStdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("PopStdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); !math.IsNaN(got) {
		t.Errorf("Variance of single value should be NaN, got %v", got)
	}
}

func TestWeightedVarianceReducesToPopVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	ws := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if got := WeightedVariance(xs, ws); !almostEqual(got, PopVariance(xs), 1e-12) {
		t.Errorf("uniform weights: got %v, want %v", got, PopVariance(xs))
	}
}

func TestWeightedVarianceRepeatEquivalence(t *testing.T) {
	// Integer weights must equal repeating each observation w times.
	xs := []float64{1, 5, 9}
	ws := []float64{2, 3, 1}
	expanded := []float64{1, 1, 5, 5, 5, 9}
	if got := WeightedVariance(xs, ws); !almostEqual(got, PopVariance(expanded), 1e-12) {
		t.Errorf("got %v, want %v", got, PopVariance(expanded))
	}
	if got := WeightedMean(xs, ws); !almostEqual(got, Mean(expanded), 1e-12) {
		t.Errorf("mean: got %v, want %v", got, Mean(expanded))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", got)
	}
	// R type-7: quantile(c(1,2,3,4), 0.25) == 1.75
	if got := Quantile(xs, 0.25); !almostEqual(got, 1.75, 1e-12) {
		t.Errorf("q25 = %v, want 1.75", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile should be NaN")
	}
	if got := Quantile(xs, 1.5); !math.IsNaN(got) {
		t.Errorf("out-of-range q should be NaN")
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sorted := append([]float64(nil), xs...)
	sortFloats(sorted)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if a, b := Quantile(xs, q), QuantileSorted(sorted, q); !almostEqual(a, b, 1e-12) {
			t.Errorf("q=%v: %v vs %v", q, a, b)
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive: got %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative: got %v", got)
	}
	konst := []float64{3, 3, 3, 3, 3}
	if got := Pearson(xs, konst); !math.IsNaN(got) {
		t.Errorf("constant series should be NaN, got %v", got)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		a, b := Pearson(xs, ys), Pearson(ys, xs)
		return almostEqual(a, b, 1e-12) && a >= -1-1e-12 && a <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A strongly persistent AR(1) series should have high lag-1 rho.
	rng := rand.New(rand.NewSource(42))
	n := 20000
	xs := make([]float64, n)
	phi := 0.95
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + rng.NormFloat64()
	}
	rho1 := Autocorrelation(xs, 1)
	if rho1 < 0.9 || rho1 > 1.0 {
		t.Errorf("AR(1) phi=0.95 lag-1 rho = %v, want ~0.95", rho1)
	}
	rho10 := Autocorrelation(xs, 10)
	want := math.Pow(phi, 10)
	if math.Abs(rho10-want) > 0.07 {
		t.Errorf("lag-10 rho = %v, want ~%v", rho10, want)
	}
	if got := Autocorrelation(xs, 0); got != 1 {
		t.Errorf("lag-0 rho = %v, want 1", got)
	}
	if got := Autocorrelation(xs, n); !math.IsNaN(got) {
		t.Errorf("lag >= n should be NaN")
	}
}

func TestPersistenceRatioBounds(t *testing.T) {
	// White noise: ratio should be ~1 at any lag.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, lag := range []int{1, 10, 100} {
		r := PersistenceRatio(xs, lag)
		if math.Abs(r-1) > 0.03 {
			t.Errorf("white noise lag %d: ratio %v, want ~1", lag, r)
		}
	}
	// Perfectly persistent constant-slope series over short lags ~ 0.
	lin := make([]float64, 1000)
	for i := range lin {
		lin[i] = math.Sin(float64(i) / 500)
	}
	if r := PersistenceRatio(lin, 1); r > 0.05 {
		t.Errorf("smooth series lag-1 ratio %v, want near 0", r)
	}
}

func TestPersistenceRatioMatchesAutocorrelation(t *testing.T) {
	// For long series the identity ratio = sqrt(1 - rho) should hold to
	// within edge-effect error.
	rng := rand.New(rand.NewSource(9))
	n := 100000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.9*xs[i-1] + rng.NormFloat64()
	}
	for _, lag := range []int{1, 5, 20} {
		want := math.Sqrt(1 - Autocorrelation(xs, lag))
		got := PersistenceRatio(xs, lag)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("lag %d: ratio %v vs sqrt(1-rho) %v", lag, got, want)
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := CoefficientOfVariation(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("constant CV = %v, want 0", got)
	}
	if got := CoefficientOfVariation([]float64{-1, 1}); !math.IsNaN(got) {
		t.Errorf("zero-mean CV should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	d := Summarize([]float64{1, 2, 3, 4, 5})
	if d.N != 5 || d.Mean != 3 || d.Min != 1 || d.Max != 5 || d.Median != 3 {
		t.Errorf("unexpected summary %+v", d)
	}
	e := Summarize(nil)
	if e.N != 0 || !math.IsNaN(e.Mean) {
		t.Errorf("empty summary %+v", e)
	}
}

func TestMinMaxSum(t *testing.T) {
	lo, hi := MinMax([]float64{3, -2, 7, 0})
	if lo != -2 || hi != 7 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	if s := Sum([]float64{1, 2, 3.5}); !almostEqual(s, 6.5, 1e-12) {
		t.Errorf("Sum = %v", s)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("empty MinMax should be NaN")
	}
}

// TestMinMaxHistogramIgnoreNaN: a NaN is never an extremum, never hides
// one, and is neither binned nor counted, wherever it sits — the first
// value seeded both bounds once, and int(NaN) is whatever the platform
// makes of it.
func TestMinMaxHistogramIgnoreNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		xs     []float64
		lo, hi float64
		counts []int // two bins over [lo, hi)
	}{
		{"no NaN", []float64{1, 3, 2}, 1, 3, []int{1, 2}},
		{"NaN first", []float64{nan, 1, 3, 2}, 1, 3, []int{1, 2}},
		{"NaN in the middle", []float64{1, nan, 3, nan, 2}, 1, 3, []int{1, 2}},
		{"NaN last", []float64{1, 3, 2, nan}, 1, 3, []int{1, 2}},
		{"only NaN", []float64{nan, nan}, nan, nan, nil},
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, c := range cases {
		lo, hi := MinMax(c.xs)
		if !same(lo, c.lo) || !same(hi, c.hi) {
			t.Errorf("%s: MinMax = %v, %v; want %v, %v", c.name, lo, hi, c.lo, c.hi)
		}
		h := NewHistogram(c.xs, lo, hi, 2)
		total := 0
		for _, n := range h.Counts {
			total += n
		}
		if !reflect.DeepEqual(h.Counts, c.counts) || h.N != total {
			t.Errorf("%s: histogram counts %v n %d; want %v and n = their sum", c.name, h.Counts, h.N, c.counts)
		}
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	z := Standardize(xs)
	if !almostEqual(Mean(z), 0, 1e-12) {
		t.Errorf("standardized mean = %v", Mean(z))
	}
	if !almostEqual(StdDev(z), 1, 1e-12) {
		t.Errorf("standardized sd = %v", StdDev(z))
	}
}

func TestOffsetDiffStdDev(t *testing.T) {
	// For a pure linear ramp the lagged differences are constant, so the
	// diff stddev must be exactly zero.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i) * 2
	}
	if got := OffsetDiffStdDev(xs, 5); !almostEqual(got, 0, 1e-12) {
		t.Errorf("ramp diff sd = %v, want 0", got)
	}
	if got := OffsetDiffStdDev(xs, 0); !math.IsNaN(got) {
		t.Errorf("lag 0 should be NaN")
	}
	if got := OffsetDiffStdDev(xs, 100); !math.IsNaN(got) {
		t.Errorf("lag >= n should be NaN")
	}
}
