package stats_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/stats"
)

// floatsBytes packs xs as FuzzSummarize's input: eight little-endian
// bytes per value.
func floatsBytes(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// sameFloat is bit equality, any NaN equal to any other.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameExtreme is sameFloat, except that −0 and +0 are equal: when both
// sit at an end, which one sort.Float64s (not a stable sort) leaves
// there is itself unspecified.
func sameExtreme(a, b float64) bool {
	return sameFloat(a, b) || a == 0 && b == 0
}

// FuzzSummarize holds stats.SummarizeOwned, which selects its order
// statistics in place, to reference.Summarize, which sorts a copy:
// every field equal by bits, NaN by IsNaN. So is Quantile at a few q
// against QuantileSorted over the sorted copy.
func FuzzSummarize(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	sub := math.SmallestNonzeroFloat64
	for _, xs := range [][]float64{
		{},
		{7},
		{-0.0},
		{nan},
		{2, 1},
		{math.Copysign(0, -1), 0},
		{0, math.Copysign(0, -1), math.Copysign(0, -1)},
		{1, nan, 3},
		{-inf, -inf, 1},
		{-inf, 1, inf},
		{inf, inf, inf},
		{nan, nan, -inf, 2, inf},
		{sub, -sub, 0, math.Copysign(0, -1), 4 * sub},
		{1, 2, 3, 4, 5},       // n−1 = 4: every quartile on an index
		{4, 4, 4, 4, 4, 4, 4}, // one long tie
		{3, 1, 3, 1, 3, 1, 2, 2, 2},
		{5, 3, 5, 3, 5, 3, 5, 3, math.MaxFloat64, -math.MaxFloat64},
	} {
		f.Add(floatsBytes(xs...))
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 6, 7, 9, 10, 12, 13, 17, 20, 31, 64, 100, 300, 1000} {
		ties, spread := make([]float64, n), make([]float64, n)
		for i := range ties {
			ties[i] = float64(rng.Intn(6)) // runtimes repeat: a few values, many times each
			spread[i] = rng.NormFloat64()
		}
		f.Add(floatsBytes(ties...))
		f.Add(floatsBytes(spread...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		want := reference.Summarize(xs)
		in := slices.Clone(xs)
		got := stats.SummarizeOwned(slices.Clone(xs))
		if !slices.EqualFunc(in, xs, sameFloat) {
			t.Fatal("reference.Summarize changed its input")
		}
		if got.N != want.N ||
			!sameFloat(got.Mean, want.Mean) || !sameFloat(got.StdDev, want.StdDev) ||
			!sameExtreme(got.Min, want.Min) || !sameExtreme(got.Max, want.Max) ||
			!sameFloat(got.Q25, want.Q25) || !sameFloat(got.Median, want.Median) || !sameFloat(got.Q75, want.Q75) {
			t.Fatalf("SummarizeOwned(%v)\n = %+v\nwant %+v", xs, got, want)
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			same := sameFloat
			if q == 1 {
				same = sameExtreme // the largest rank, read as it is
			}
			if got, want := stats.Quantile(xs, q), stats.QuantileSorted(sorted, q); !same(got, want) {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", xs, q, got, want)
			}
		}
		if !slices.EqualFunc(in, xs, sameFloat) {
			t.Fatal("Quantile changed its input")
		}
	})
}

var sinkDescribe stats.Describe

// BenchmarkSummarizeOwned summarizes 200 000 runtimes shaped like the
// benchmark fixture's: whole minutes, so values repeat heavily.
func BenchmarkSummarizeOwned(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	runtimes := make([]float64, 200_000)
	for i := range runtimes {
		runtimes[i] = math.Round(rng.ExpFloat64() * 549)
	}
	buf := make([]float64, len(runtimes))
	b.ResetTimer()
	for range b.N {
		copy(buf, runtimes)
		sinkDescribe = stats.SummarizeOwned(buf)
	}
}
