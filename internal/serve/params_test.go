package serve

import (
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"supremm/internal/core"
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

// TestParseQuery: cmd/xdmod's -query spec decodes through /api/v1/query's
// keys, defaults and bounds — a repeated key, a limit past 10000 and an
// unknown key fail as they do over HTTP, and endafter/endbefore pass. The
// spec vocabulary's older cases are core's TestParseQuery* tests.
func TestParseQuery(t *testing.T) {
	defaults := core.Query{GroupBy: store.ByUser, Metrics: store.KeyMetrics(), Filter: store.Filter{MinSamples: 1}, Limit: 20}
	full := core.Query{
		GroupBy: store.ByApp,
		Metrics: []store.Metric{store.MetricCPUIdle, store.MetricFlops},
		Filter: store.Filter{
			App: "namd", User: "alice", Science: "Molecular Biosciences", Cluster: "ranger",
			Status: "COMPLETED", MinSamples: 3, EndAfter: 100, EndBefore: 200,
		},
		Limit:     5,
		Normalize: true,
	}
	for spec, want := range map[string]core.Query{
		"":    defaults,
		" \t": defaults,
		"group=app metrics=cpu_idle,cpu_flops app=namd user=alice science=Molecular+Biosciences cluster=ranger " +
			"status=COMPLETED minsamples=3 endafter=100 endbefore=200 limit=5 normalize=true": full,
	} {
		got, err := ParseQuery(spec)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", spec, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, spec := range []string{
		"limit=10001",
		"bins=10", // another endpoint's key
		"group=app group=user",
		"science=%zz",
	} {
		if _, err := ParseQuery(spec); err == nil {
			t.Errorf("ParseQuery(%q) accepted bad input", spec)
		}
	}
}

// TestDecodeParamsErrorIsDeterministic: a query with several bad keys
// gets the same 400 on every call, whatever url.Values' map order —
// the lexicographically smallest unknown key, else the first bad key
// in the order the endpoint lists its keys. Both over HTTP and through
// ParseQuery (cmd/xdmod -query).
func TestDecodeParamsErrorIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(20), fixtureSeries(5), nil)
	srv := newTestServer(t, dir)
	const calls = 200
	for target, want := range map[string]string{
		"/api/v1/distribution?bins=0&minsamples=-1&n=abc":           `unknown parameter \"n\"`,
		"/api/v1/distribution?zz=1&bins=0&minsamples=-1&n=abc":      `unknown parameter \"n\"`,
		"/api/v1/distribution?minsamples=-1&bins=0&metric=bogus":    `unknown metric \"bogus\"`,
		"/api/v1/distribution?minsamples=-1&bins=0&metric=cpu_idle": `bad bins \"0\"`,
	} {
		bodies := map[string]int{}
		for i := 0; i < calls; i++ {
			status, body := get(t, srv, target)
			if status != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", target, status)
			}
			bodies[string(body)]++
		}
		if len(bodies) != 1 {
			t.Errorf("%s: %d different bodies over %d calls: %v", target, len(bodies), calls, bodies)
		}
		for body := range bodies {
			if !strings.Contains(body, want) {
				t.Errorf("%s: body %s, want it to name %s", target, body, want)
			}
		}
	}
	for spec, want := range map[string]string{
		"limit=0 bogus=1":       `unknown parameter "bogus"`,
		"limit=0 minsamples=-1": `bad limit "0"`,
	} {
		errs := map[string]int{}
		for i := 0; i < calls; i++ {
			_, err := ParseQuery(spec)
			if err == nil {
				t.Fatalf("ParseQuery(%q) accepted bad input", spec)
			}
			errs[err.Error()]++
		}
		if len(errs) != 1 {
			t.Errorf("ParseQuery(%q): %d different errors over %d calls: %v", spec, len(errs), calls, errs)
		}
		for e := range errs {
			if !strings.Contains(e, want) {
				t.Errorf("ParseQuery(%q): %s, want it to name %s", spec, e, want)
			}
		}
	}
}
