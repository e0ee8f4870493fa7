package core

import (
	"fmt"
	"math"

	"supremm/internal/stats"
	"supremm/internal/store"
)

// Forecaster implements the paper's "limited predictive capability"
// (abstract, §4.3.4): given the persistence structure of a system
// metric, predict its value some offset into the future with an
// uncertainty band derived from the persistence ratio.
//
// The model follows directly from the Table 1 statistic. With
// r(tau) = sqrt(1 - rho(tau)) the fitted persistence ratio, the minimum
// mean-square-error linear predictor of x(t+tau) given x(t) is
//
//	x̂(t+tau) = mu + rho(tau) * (x(t) - mu),   rho(tau) = 1 - r(tau)^2
//
// with prediction standard error sigma * sqrt(1 - rho^2). At small
// offsets rho ~ 1 and the forecast sticks to the current value; past
// the prediction horizon rho ~ 0 and it falls back to the ensemble
// mean — exactly the paper's reading of Table 1 ("we cannot predict the
// value any better than using the general statistics of the ensemble").
type Forecaster struct {
	Metric  string
	StepMin float64 // the series' sampling step, as the persistence table read it

	col   []float64 // the metric's column the forecaster was fitted on
	mean  float64
	sigma float64
	fit   stats.LinearFit // ratio = a + b*ln(offset_min)
}

// NewForecaster fits a forecaster for one system metric from the
// realm's series and persistence table.
func (r *Realm) NewForecaster(metric string) (*Forecaster, error) {
	col := store.SeriesColumn(r.Series, metric)
	if col == nil {
		return nil, fmt.Errorf("core: unknown series metric %q", metric)
	}
	if len(col) < 20 {
		return nil, fmt.Errorf("core: series too short to fit a forecaster (%d samples)", len(col))
	}
	tab, err := r.Persistence()
	if err != nil {
		return nil, err
	}
	fit, ok := tab.Fits[metric]
	if !ok {
		return nil, fmt.Errorf("core: metric %q is not a persistence metric", metric)
	}
	return &Forecaster{
		Metric:  metric,
		StepMin: tab.StepMin,
		col:     col,
		mean:    stats.Mean(col),
		sigma:   stats.PopStdDev(col),
		fit:     fit,
	}, nil
}

// Rho returns the implied autocorrelation at an offset in minutes,
// clamped to [0, 1].
func (f *Forecaster) Rho(offsetMin float64) float64 {
	if offsetMin <= 0 {
		return 1
	}
	ratio := f.fit.Predict(math.Log(offsetMin))
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return 1 - ratio*ratio
}

// Forecast predicts the metric offsetMin into the future from the
// current value, returning the point prediction and its standard error.
func (f *Forecaster) Forecast(current, offsetMin float64) (pred, se float64) {
	rho := f.Rho(offsetMin)
	pred = f.mean + rho*(current-f.mean)
	se = f.sigma * math.Sqrt(1-rho*rho)
	return pred, se
}

// EvalResult summarizes in-sample forecast quality against the naive
// climatology (always predict the ensemble mean).
type EvalResult struct {
	OffsetMin float64
	N         int
	MAE       float64 // mean absolute error of the persistence forecast
	NaiveMAE  float64 // MAE of always predicting the mean
	// Skill is 1 - MAE/NaiveMAE: positive means the persistence model
	// beats climatology.
	Skill float64
}

// Evaluate walks the column the forecaster was fitted on and scores it
// at one offset.
func (f *Forecaster) Evaluate(offsetMin float64) (EvalResult, error) {
	lag := int(math.Round(offsetMin / f.StepMin))
	if lag < 1 || lag >= len(f.col) {
		return EvalResult{}, fmt.Errorf("core: offset %v min out of range for %d samples", offsetMin, len(f.col))
	}
	var sumErr, sumNaive float64
	n := 0
	for i := 0; i+lag < len(f.col); i++ {
		pred, _ := f.Forecast(f.col[i], offsetMin)
		actual := f.col[i+lag]
		sumErr += math.Abs(pred - actual)
		sumNaive += math.Abs(f.mean - actual)
		n++
	}
	res := EvalResult{OffsetMin: offsetMin, N: n}
	if n > 0 {
		res.MAE = sumErr / float64(n)
		res.NaiveMAE = sumNaive / float64(n)
		if res.NaiveMAE > 0 {
			res.Skill = 1 - res.MAE/res.NaiveMAE
		}
	}
	return res, nil
}

// ScheduleHint is the paper's §4.3.4 closing suggestion made concrete:
// given forecasts of the system's IO and network load, say whether now
// is a good moment to launch IO-heavy or network-heavy work ("add high
// I/O jobs when I/O is relatively free").
type ScheduleHint struct {
	Metric       string
	Current      float64
	ForecastMean float64 // forecast at the given lead time
	FleetMean    float64
	// Headroom is (fleet mean - forecast)/fleet mean; positive means
	// the resource is forecast to be below its typical load.
	Headroom  float64
	Favorable bool
}

// Hint produces a scheduling hint for one metric at a lead time.
func (r *Realm) Hint(metric string, leadMin float64) (ScheduleHint, error) {
	f, err := r.NewForecaster(metric)
	if err != nil {
		return ScheduleHint{}, err
	}
	current := f.col[len(f.col)-1]
	pred, _ := f.Forecast(current, leadMin)
	h := ScheduleHint{
		Metric:       metric,
		Current:      current,
		ForecastMean: pred,
		FleetMean:    f.mean,
	}
	if f.mean != 0 {
		h.Headroom = (f.mean - pred) / f.mean
	}
	h.Favorable = h.Headroom > 0
	return h, nil
}
