package core

import (
	"fmt"
	"math"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// PersistenceMetrics are the five system-level series §4.3.4 analyzes,
// in the paper's Table 1 column order.
func PersistenceMetrics() []string {
	return []string{"cpu_flops", "mem_used", "io_scratch_write", "net_ib_tx", "cpu_idle"}
}

// PersistenceOffsetsMin are Table 1's row offsets, minutes.
func PersistenceOffsetsMin() []int { return []int{10, 30, 100, 500, 1000} }

// PersistenceTable is the reproduction of Table 1 plus the per-metric
// and combined logarithmic fits of Fig 6.
//
// Statistic definition: the paper describes "the standard deviation of
// the difference [between offset and original values] divided by the
// original standard deviation", yet its values converge to 1.0 at large
// offsets where the literal ratio converges to sqrt(2) for decorrelated
// series. We therefore use stddev(diff)/(sqrt(2)*sigma) = sqrt(1-rho),
// which matches both limits of Table 1 (see DESIGN.md §2).
type PersistenceTable struct {
	OffsetsMin []int
	StepMin    float64 // the series' sampling step, read from its times
	// Ratios[metric][i] is the persistence ratio at OffsetsMin[i];
	// NaN where the offset exceeds the series length.
	Ratios map[string][]float64
	// Fits are per-metric log-linear fits (ratio = a + b*ln(offset)).
	Fits map[string]stats.LinearFit
	// Combined is the all-metrics fit of Fig 6.
	Combined stats.LinearFit
}

// Persistence computes the Table 1 / Fig 6 analysis over the realm's
// system series, at the series' own sampling step (seriesStepMin). The
// table and error are computed once per series and shared by every
// caller, and by the next generation's realm when it adopts the series
// (AdoptSeries): the table is read-only.
func (r *Realm) Persistence() (*PersistenceTable, error) {
	p := r.persist.Get(func() persistence {
		t, err := PersistenceFromSeries(r.Series)
		return persistence{t, err}
	})
	return p.table, p.err
}

// PersistenceFromSeries is the series-level entry point (used directly
// by the ablation benchmarks).
func PersistenceFromSeries(series []store.SystemSample) (*PersistenceTable, error) {
	if len(series) < 10 {
		return nil, fmt.Errorf("core: series too short for persistence analysis (%d samples)", len(series))
	}
	stepMin, err := seriesStepMin(series)
	if err != nil {
		return nil, err
	}
	t := &PersistenceTable{
		OffsetsMin: PersistenceOffsetsMin(),
		StepMin:    stepMin,
		Ratios:     make(map[string][]float64),
		Fits:       make(map[string]stats.LinearFit),
	}
	var combX, combY []float64
	for _, metric := range PersistenceMetrics() {
		col := store.SeriesColumn(series, metric)
		ratios := make([]float64, len(t.OffsetsMin))
		var fitX, fitY []float64
		for i, off := range t.OffsetsMin {
			lag := int(math.Round(float64(off) / stepMin))
			if lag < 1 || lag >= len(col) {
				ratios[i] = math.NaN()
				continue
			}
			ratios[i] = stats.PersistenceRatio(col, lag)
			if !math.IsNaN(ratios[i]) {
				fitX = append(fitX, float64(off))
				fitY = append(fitY, ratios[i])
				combX = append(combX, float64(off))
				combY = append(combY, ratios[i])
			}
		}
		t.Ratios[metric] = ratios
		if len(fitX) >= 3 {
			if fit, err := stats.FitLogLinear(fitX, fitY); err == nil {
				t.Fits[metric] = fit
			}
		}
	}
	if len(combX) >= 3 {
		if fit, err := stats.FitLogLinear(combX, combY); err == nil {
			t.Combined = fit
		}
	}
	return t, nil
}

// seriesStepMin is the series' sampling step in minutes: the median gap
// between consecutive sample times, so a missing bucket (an outage no
// host reported) does not move it. TACC_Stats samples every 10 minutes.
func seriesStepMin(series []store.SystemSample) (float64, error) {
	gaps := make([]float64, 0, len(series))
	for i := 1; i < len(series); i++ {
		gaps = append(gaps, float64(series[i].Time-series[i-1].Time))
	}
	step := stats.Median(gaps) / 60
	if !(step > 0) {
		return 0, fmt.Errorf("core: series times do not advance (median step %v min)", step)
	}
	return step, nil
}

// PredictabilityOrder returns metric names ordered from hardest to
// easiest to predict (descending ratio at the given offset index),
// reproducing §4.3.4's ordering io_scratch_write < net_ib_tx ~ cpu_idle
// < mem_used ~ cpu_flops (listed there in increasing predictive
// ability).
func (t *PersistenceTable) PredictabilityOrder(offsetIdx int) []string {
	metrics := PersistenceMetrics()
	out := append([]string(nil), metrics...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a := t.Ratios[out[j-1]][offsetIdx]
			b := t.Ratios[out[j]][offsetIdx]
			if !math.IsNaN(a) && !math.IsNaN(b) && b > a {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// PredictionHorizonMin solves the combined fit for the offset at which
// the ratio reaches the given level (e.g. 0.9 ~ "little memory of the
// original value"), the quantity the paper compares to the mean job
// length (549 min on Ranger, 446 on Lonestar4).
func (t *PersistenceTable) PredictionHorizonMin(level float64) float64 {
	if t.Combined.Slope <= 0 {
		return math.NaN()
	}
	return math.Exp((level - t.Combined.Intercept) / t.Combined.Slope)
}
