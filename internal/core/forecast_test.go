package core

import (
	"math"
	"testing"

	"supremm/internal/store"
)

func TestForecasterBasics(t *testing.T) {
	r, _ := realms(t)
	f, err := r.NewForecaster("cpu_flops")
	if err != nil {
		t.Fatal(err)
	}
	// Rho is 1 at zero offset and decays monotonically.
	if got := f.Rho(0); got != 1 {
		t.Errorf("rho(0) = %v", got)
	}
	prev := 1.0
	for _, off := range []float64{10, 30, 100, 500, 1000, 5000} {
		rho := f.Rho(off)
		if rho < 0 || rho > 1 {
			t.Fatalf("rho(%v) = %v out of [0,1]", off, rho)
		}
		if rho > prev+1e-9 {
			t.Errorf("rho not decaying at %v: %v > %v", off, rho, prev)
		}
		prev = rho
	}
}

func TestForecastInterpolatesBetweenCurrentAndMean(t *testing.T) {
	r, _ := realms(t)
	f, err := r.NewForecaster("cpu_flops")
	if err != nil {
		t.Fatal(err)
	}
	current := f.mean * 2 // a hot moment
	shortPred, shortSE := f.Forecast(current, 10)
	longPred, longSE := f.Forecast(current, 50000)
	// Short horizon: prediction stays near the current value.
	if math.Abs(shortPred-current) > math.Abs(shortPred-f.mean) {
		t.Errorf("10-min forecast %v should be closer to current %v than mean %v",
			shortPred, current, f.mean)
	}
	// Long horizon: falls back to the ensemble mean, as §4.3.4 reads
	// Table 1.
	if math.Abs(longPred-f.mean) > 0.05*f.mean {
		t.Errorf("long forecast %v should approach mean %v", longPred, f.mean)
	}
	// Uncertainty grows with horizon toward sigma.
	if shortSE >= longSE {
		t.Errorf("se should grow with horizon: %v vs %v", shortSE, longSE)
	}
	if longSE > f.sigma*1.01 {
		t.Errorf("long se %v should not exceed sigma %v", longSE, f.sigma)
	}
}

func TestForecastSkillBeatsClimatologyAtShortOffsets(t *testing.T) {
	// The whole point of the persistence model: at 10-30 minutes the
	// forecast is much better than the ensemble mean; at very long
	// offsets the advantage vanishes.
	r, _ := realms(t)
	for _, metric := range []string{"cpu_flops", "mem_used"} {
		f, err := r.NewForecaster(metric)
		if err != nil {
			t.Fatal(err)
		}
		short, err := f.Evaluate(10)
		if err != nil {
			t.Fatal(err)
		}
		if short.Skill < 0.3 {
			t.Errorf("%s: 10-min skill = %v, want strong", metric, short.Skill)
		}
		long, err := f.Evaluate(2000)
		if err != nil {
			t.Fatal(err)
		}
		if long.Skill > short.Skill {
			t.Errorf("%s: skill should decay with offset (%v -> %v)", metric, short.Skill, long.Skill)
		}
		if long.Skill < -0.2 {
			t.Errorf("%s: long-offset skill = %v, should degrade to ~climatology, not worse", metric, long.Skill)
		}
	}
}

func TestForecasterErrors(t *testing.T) {
	r, _ := realms(t)
	if _, err := r.NewForecaster("bogus"); err == nil {
		t.Error("unknown metric should error")
	}
	if _, err := r.NewForecaster("active_nodes"); err == nil {
		t.Error("non-persistence metric should error")
	}
	short := NewRealm(machineX, store.New().AsSet(), make([]store.SystemSample, 5))
	if _, err := short.NewForecaster("cpu_flops"); err == nil {
		t.Error("short series should error")
	}
	f, err := r.NewForecaster("cpu_flops")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Evaluate(0.1); err == nil {
		t.Error("sub-step offset should error")
	}
	if _, err := f.Evaluate(1e9); err == nil {
		t.Error("beyond-series offset should error")
	}
}

func TestScheduleHint(t *testing.T) {
	// §4.3.4 / §5: "add high I/O jobs when I/O is relatively free" —
	// the hint must be favorable exactly when the forecast is below the
	// series mean.
	r, _ := realms(t)
	h, err := r.Hint("io_scratch_write", 30)
	if err != nil {
		t.Fatal(err)
	}
	if h.Metric != "io_scratch_write" {
		t.Errorf("metric = %q", h.Metric)
	}
	wantFavorable := h.ForecastMean < h.FleetMean
	if h.Favorable != wantFavorable {
		t.Errorf("favorable = %v, forecast %v vs fleet %v", h.Favorable, h.ForecastMean, h.FleetMean)
	}
	if math.IsNaN(h.Headroom) {
		t.Error("headroom is NaN")
	}
	if _, err := r.Hint("bogus", 30); err == nil {
		t.Error("unknown metric should error")
	}
}
