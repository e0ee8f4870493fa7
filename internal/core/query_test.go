package core

import (
	"math"
	"testing"

	"supremm/internal/store"
)

func TestParseQueryDefaults(t *testing.T) {
	q, err := ParseQuery("")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != store.ByUser || len(q.Metrics) != 8 || q.Limit != 20 {
		t.Errorf("defaults: %+v", q)
	}
	if q.Filter.MinSamples != 1 {
		t.Errorf("default minsamples = %d", q.Filter.MinSamples)
	}
}

func TestParseQueryFull(t *testing.T) {
	q, err := ParseQuery("group=app metrics=cpu_idle,cpu_flops app=namd user=alice science=Molecular+Biosciences cluster=ranger status=COMPLETED minsamples=3 limit=5 normalize=true")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != store.ByApp {
		t.Errorf("group = %v", q.GroupBy)
	}
	if len(q.Metrics) != 2 || q.Metrics[0] != store.MetricCPUIdle || q.Metrics[1] != store.MetricFlops {
		t.Errorf("metrics = %v", q.Metrics)
	}
	f := q.Filter
	if f.App != "namd" || f.User != "alice" || f.Cluster != "ranger" ||
		f.Status != "COMPLETED" || f.MinSamples != 3 {
		t.Errorf("filter = %+v", f)
	}
	if f.Science != "Molecular Biosciences" {
		t.Errorf("science = %q (plus-decoding broken)", f.Science)
	}
	if q.Limit != 5 || !q.Normalize {
		t.Errorf("limit/normalize = %d/%v", q.Limit, q.Normalize)
	}
}

func TestParseQueryGroups(t *testing.T) {
	for s, want := range map[string]store.GroupKey{
		"group=user": store.ByUser, "group=app": store.ByApp,
		"group=science": store.ByScience, "group=cluster": store.ByCluster,
		"group=status": store.ByStatus,
	} {
		q, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if q.GroupBy != want {
			t.Errorf("%s -> %v, want %v", s, q.GroupBy, want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"notkeyvalue",
		"group=bogus",
		"metrics=cpu_idle,nope",
		"minsamples=x",
		"minsamples=-1",
		"minsamples=1073741825",
		"minsamples=4294967297", // once truncated to minsamples=1
		"limit=0",
		"limit=x",
		"normalize=maybe",
		"frobnicate=1",
	}
	for _, s := range bad {
		if _, err := ParseQuery(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestRunQuery(t *testing.T) {
	r, _ := realms(t)
	q, err := ParseQuery("group=app metrics=cpu_idle limit=3")
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunQuery(q)
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
	// exactly 1.0 (it IS the fleet).
	r, _ := realms(t)
	q, err := ParseQuery("group=cluster metrics=cpu_idle,cpu_flops normalize=true")
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunQuery(q)
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	for _, m := range q.Metrics {
		if v := res.Groups[0].Mean[m]; math.Abs(v-1) > 1e-9 {
			t.Errorf("normalized fleet %s = %v, want 1", m, v)
		}
	}
}

func TestRunQueryScopedToRealmCluster(t *testing.T) {
	// A query without a cluster filter must not leak other clusters'
	// jobs: grouping by cluster should return only the realm's own.
	r, _ := realms(t)
	q, _ := ParseQuery("group=cluster")
	res := r.RunQuery(q)
	if len(res.Groups) != 1 || res.Groups[0].Key != r.Cluster {
		t.Errorf("realm scope broken: %+v", res.Groups)
	}
}

func TestRunQueryWithAppFilter(t *testing.T) {
	r, _ := realms(t)
	q, err := ParseQuery("group=user app=namd metrics=cpu_flops limit=100")
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunQuery(q)
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
