package core_test

import (
	"testing"

	"supremm/internal/serve"
	"supremm/internal/store"
)

// A custom report is written as the key=value spec serve.ParseQuery
// reads; these tests pin that vocabulary for core.Query.

func TestParseQueryDefaults(t *testing.T) {
	q, err := serve.ParseQuery("")
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
	q, err := serve.ParseQuery("group=app metrics=cpu_idle,cpu_flops app=namd user=alice science=Molecular+Biosciences cluster=ranger status=COMPLETED minsamples=3 limit=5 normalize=true")
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
		q, err := serve.ParseQuery(s)
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
		if _, err := serve.ParseQuery(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}
