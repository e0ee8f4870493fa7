package core

import (
	"math"
	"testing"

	"supremm/internal/store"
)

func TestSeriesTrendOnSyntheticDrift(t *testing.T) {
	// A series with a planted upward drift must yield a significant
	// positive trend of the right magnitude.
	series := make([]store.SystemSample, 1000)
	for i := range series {
		day := float64(i) / 144 // 10-minute cadence
		series[i] = store.SystemSample{
			Time:       int64(i * 600),
			MemPerNode: 10 + 0.1*day + 0.05*math.Sin(float64(i)),
		}
	}
	r := NewRealm(machineX, store.New().AsSet(), series)
	tr, err := r.SeriesTrend("mem_used")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.SlopePerDay-0.1) > 0.01 {
		t.Errorf("slope = %v/day, want 0.1", tr.SlopePerDay)
	}
	if !tr.Significant || tr.P > 1e-6 {
		t.Errorf("planted drift not significant: p=%v", tr.P)
	}
	// Relative: 0.1/day over mean ~10.35 -> ~0.29/month.
	if tr.RelativePerMonth < 0.2 || tr.RelativePerMonth > 0.4 {
		t.Errorf("relative = %v/month", tr.RelativePerMonth)
	}
}

func TestSeriesTrendFlatSeriesInsignificant(t *testing.T) {
	series := make([]store.SystemSample, 500)
	for i := range series {
		series[i] = store.SystemSample{
			Time:        int64(i * 600),
			TotalTFlops: 5 + math.Sin(float64(i)*0.7),
		}
	}
	r := NewRealm(machineX, store.New().AsSet(), series)
	tr, err := r.SeriesTrend("total_tflops")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Significant && math.Abs(tr.RelativePerMonth) > 0.05 {
		t.Errorf("flat series flagged with material trend: %+v", tr)
	}
}

func TestSeriesTrendErrors(t *testing.T) {
	r := NewRealm(machineX, store.New().AsSet(), make([]store.SystemSample, 3))
	if _, err := r.SeriesTrend("mem_used"); err == nil {
		t.Error("short series should error")
	}
	if _, err := r.SeriesTrend("bogus"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestTrendReport(t *testing.T) {
	r, _ := realms(t)
	trends := r.TrendReport()
	if len(trends) != 5 {
		t.Fatalf("trends = %d", len(trends))
	}
	for _, tr := range trends {
		if tr.N != len(r.Series) {
			t.Errorf("%s: fitted %d points", tr.Metric, tr.N)
		}
		if math.IsNaN(tr.SlopePerDay) {
			t.Errorf("%s: NaN slope", tr.Metric)
		}
	}
}

func TestCharacterize(t *testing.T) {
	r, _ := realms(t)
	c := r.Characterize()
	if c.Jobs != r.JobCount() {
		t.Errorf("jobs = %d, realm has %d", c.Jobs, r.JobCount())
	}
	if math.Abs(c.TotalNodeHours-r.TotalNodeHours()) > 1e-6*c.TotalNodeHours {
		t.Errorf("node-hours = %v vs realm %v", c.TotalNodeHours, r.TotalNodeHours())
	}
	// Buckets partition the jobs and the node-hours.
	var jobs int
	var nh, share float64
	for _, b := range c.SizeBuckets {
		jobs += b.Jobs
		nh += b.NodeHours
		share += b.NodeHoursShare
	}
	if jobs != c.Jobs {
		t.Errorf("bucket jobs %d != %d", jobs, c.Jobs)
	}
	if math.Abs(nh-c.TotalNodeHours) > 1e-6*nh {
		t.Errorf("bucket node-hours %v != %v", nh, c.TotalNodeHours)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("bucket shares sum to %v", share)
	}
	// The weighted mean runtime is the paper's statistic: longer than
	// the unweighted mean (big jobs run longer).
	if c.WeightedMeanRuntimeMin <= c.Runtime.Mean {
		t.Errorf("weighted runtime %v should exceed plain mean %v",
			c.WeightedMeanRuntimeMin, c.Runtime.Mean)
	}
	// Shares ordered and summing to 1.
	checkShares := func(name string, rows []ShareRow) {
		var total float64
		for i, row := range rows {
			total += row.Share
			if i > 0 && row.NodeHours > rows[i-1].NodeHours {
				t.Errorf("%s shares not ordered", name)
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s shares sum to %v", name, total)
		}
	}
	checkShares("science", c.ScienceShare)
	checkShares("app", c.AppShare)
	// The MD codes should be a visible slice of the mix.
	var mdShare float64
	for _, row := range c.AppShare {
		switch row.Key {
		case "namd", "amber", "gromacs":
			mdShare += row.Share
		}
	}
	if mdShare < 0.1 {
		t.Errorf("MD share = %v, want a visible fraction", mdShare)
	}
}

func TestCharacterizeEmptyRealm(t *testing.T) {
	r := NewRealm(machineX, store.New().AsSet(), nil)
	c := r.Characterize()
	if c.Jobs != 0 || c.TotalNodeHours != 0 {
		t.Errorf("empty characterization: %+v", c)
	}
	if !math.IsNaN(c.WeightedMeanRuntimeMin) {
		t.Error("empty weighted runtime should be NaN")
	}
}
