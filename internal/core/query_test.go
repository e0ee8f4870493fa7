package core

import (
	"math"
	"testing"

	"supremm/internal/store"
)

func TestRunQuery(t *testing.T) {
	r, _ := realms(t)
	res := r.RunQuery(Query{GroupBy: store.ByApp, Metrics: []store.Metric{store.MetricCPUIdle}, Filter: store.Filter{MinSamples: 1}, Limit: 3})
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want limit 3", len(res.Groups))
	}
	// Ordered by node-hours descending.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i].NodeHours > res.Groups[i-1].NodeHours {
			t.Error("groups not ordered")
		}
	}
	if res.FleetMeans[store.MetricCPUIdle] <= 0 {
		t.Error("fleet mean missing")
	}
}

func TestRunQueryNormalized(t *testing.T) {
	// A normalized group-by-cluster query over everything must return
	// exactly 1.0 (it IS the fleet), also for a metric named twice: each
	// group mean is divided by its fleet mean once.
	r, _ := realms(t)
	for _, metrics := range [][]store.Metric{
		{store.MetricCPUIdle, store.MetricFlops},
		{store.MetricCPUIdle, store.MetricFlops, store.MetricCPUIdle},
	} {
		q := Query{GroupBy: store.ByCluster, Metrics: metrics, Filter: store.Filter{MinSamples: 1}, Limit: 20, Normalize: true}
		res := r.RunQuery(q)
		if len(res.Groups) != 1 {
			t.Fatalf("%v: groups = %d", metrics, len(res.Groups))
		}
		for _, m := range q.Metrics {
			if v := res.Groups[0].Mean[m]; math.Abs(v-1) > 1e-9 {
				t.Errorf("%v: normalized fleet %s = %v, want 1", metrics, m, v)
			}
		}
	}
}

func TestRunQueryScopedToRealmCluster(t *testing.T) {
	// A query without a cluster filter must not leak other clusters'
	// jobs: grouping by cluster should return only the realm's own.
	r, _ := realms(t)
	res := r.RunQuery(Query{GroupBy: store.ByCluster, Metrics: store.KeyMetrics(), Filter: store.Filter{MinSamples: 1}, Limit: 20})
	if len(res.Groups) != 1 || res.Groups[0].Key != r.Cluster {
		t.Errorf("realm scope broken: %+v", res.Groups)
	}
}

func TestRunQueryWithAppFilter(t *testing.T) {
	r, _ := realms(t)
	res := r.RunQuery(Query{GroupBy: store.ByUser, Metrics: []store.Metric{store.MetricFlops}, Filter: store.Filter{App: "namd", MinSamples: 1}, Limit: 100})
	if len(res.Groups) == 0 {
		t.Fatal("no namd users found")
	}
	// Cross-check one group against a direct aggregate.
	g := res.Groups[0]
	agg := r.Store.Aggregate(store.MetricFlops, store.Filter{
		Cluster: r.Cluster, User: g.Key, App: "namd", MinSamples: 1,
	})
	if math.Abs(agg.Mean-g.Mean[store.MetricFlops]) > 1e-9 {
		t.Errorf("query %v vs direct %v", g.Mean[store.MetricFlops], agg.Mean)
	}
}
