package serve

import (
	"net/url"
	"testing"

	"supremm/internal/store"
)

var allParamKeys = []string{
	"metric", "metrics", "group", "cluster", "user", "app", "science",
	"status", "minsamples", "endafter", "endbefore", "limit", "normalize",
	"bins", "n", "apps", "min_nodehours", "suite",
}

func TestDecodeParamsDefaults(t *testing.T) {
	p, err := decodeParams(url.Values{}, allParamKeys...)
	if err != nil {
		t.Fatal(err)
	}
	if p.Limit != 20 || p.Bins != 20 || p.N != 5 {
		t.Errorf("defaults limit=%d bins=%d n=%d", p.Limit, p.Bins, p.N)
	}
	if p.Filter.MinSamples != 1 {
		t.Errorf("default minsamples=%d, want 1 (the paper's population)", p.Filter.MinSamples)
	}
	if p.Group != store.ByUser {
		t.Errorf("default group = %v, want ByUser", p.Group)
	}
	if len(p.Metrics) != len(store.KeyMetrics()) {
		t.Errorf("default metrics = %v", p.Metrics)
	}
}

func TestDecodeParamsFull(t *testing.T) {
	q, err := url.ParseQuery("metric=cpu_flops&metrics=cpu_idle,mem_used&group=app" +
		"&cluster=ranger&user=bob&app=namd&science=Physics&status=completed" +
		"&minsamples=2&endafter=100&endbefore=200&limit=7&normalize=true" +
		"&bins=50&n=9&apps=namd,wrf&min_nodehours=12.5&suite=admin")
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeParams(q, allParamKeys...)
	if err != nil {
		t.Fatal(err)
	}
	if p.Metric != store.MetricFlops || p.Group != store.ByApp || p.Limit != 7 ||
		!p.Normalize || p.Bins != 50 || p.N != 9 || p.MinNodeHours != 12.5 ||
		p.Suite != "admin" || len(p.Apps) != 2 || len(p.Metrics) != 2 {
		t.Errorf("decoded %+v", p)
	}
	f := p.Filter
	if f.Cluster != "ranger" || f.User != "bob" || f.App != "namd" ||
		f.Science != "Physics" || f.Status != "completed" ||
		f.MinSamples != 2 || f.EndAfter != 100 || f.EndBefore != 200 {
		t.Errorf("decoded filter %+v", f)
	}
}

func TestDecodeParamsRejects(t *testing.T) {
	cases := []string{
		"nosuchkey=1",
		"metric=not_a_metric",
		"metrics=cpu_idle,bogus",
		"group=nope",
		"minsamples=-1",
		"minsamples=many",
		"endafter=-5",
		"endbefore=1.5",
		"limit=0",
		"limit=10001",
		"normalize=definitely",
		"bins=0",
		"bins=1001",
		"n=-1",
		"n=1001",
		"min_nodehours=-1",
		"min_nodehours=lots",
		"min_nodehours=NaN",
		"min_nodehours=-Inf",
		"min_nodehours=Inf",
		"metric=cpu_idle&metric=cpu_idle", // repeated
	}
	for _, raw := range cases {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		if _, err := decodeParams(q, allParamKeys...); err == nil {
			t.Errorf("decodeParams(%q) accepted bad input", raw)
		}
	}
}

func TestDecodeParamsScopedAllowlist(t *testing.T) {
	q := url.Values{"suite": {"admin"}}
	if _, err := decodeParams(q, "metric"); err == nil {
		t.Error("suite accepted by an endpoint that does not take it")
	}
	if _, err := decodeParams(q, "suite"); err != nil {
		t.Errorf("suite rejected by its own endpoint: %v", err)
	}
}
