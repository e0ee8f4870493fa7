package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- fixtures are a pure function of the seed ----

func manifestOf(t *testing.T, seed int64) []byte {
	t.Helper()
	dir := t.TempDir()
	h := genHistory(seed, smokeScale.jobs, smokeScale.days, 2)
	if err := writeShardDir(dir, newStore(h.jobs)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func targetsOf(seed int64) string {
	h := genHistory(seed, smokeScale.jobs, smokeScale.days, 2)
	var b strings.Builder
	for _, r := range hotRequests(seed, h) {
		b.WriteString(r.target + "\n")
	}
	for _, i := range zipfOrder(seed, 500, 64) {
		fmt.Fprintln(&b, i)
	}
	for _, r := range coldRequests(seed, h, 300) {
		b.WriteString(r.target + "\n")
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(manifestOf(t, 7), manifestOf(t, 7)) {
		t.Error("same seed produced different MANIFEST.supremm bytes")
	}
	if bytes.Equal(manifestOf(t, 7), manifestOf(t, 8)) {
		t.Error("different seeds produced the same MANIFEST.supremm")
	}
	if targetsOf(7) != targetsOf(7) {
		t.Error("same seed produced different request lists")
	}
	if targetsOf(7) == targetsOf(8) {
		t.Error("different seeds produced the same request lists")
	}
}

func TestRequestListsHaveTheStatedShape(t *testing.T) {
	h := genHistory(3, smokeScale.jobs, smokeScale.days, 0)
	hot := hotRequests(3, h)
	if len(hot) != 64 {
		t.Fatalf("hot list has %d URLs, want 64", len(hot))
	}
	classes := map[string]int{}
	for _, r := range hot {
		classes[r.class]++
	}
	if classes["selective"] != 32 || classes["window"] != 16 || classes["groupby"] != 8 || classes["dashboard"] != 8 {
		t.Errorf("hot mix is %v", classes)
	}
	for i, r := range hotRequests(4, h) {
		if r.class != hot[i].class {
			t.Fatalf("popularity rank %d holds a %s at one seed and a %s at another", i, hot[i].class, r.class)
		}
	}
	seen := map[string]bool{}
	for _, r := range coldRequests(3, h, 3000) {
		if seen[r.target] {
			t.Fatalf("cold list repeats %s", r.target)
		}
		seen[r.target] = true
	}
}

// ---- the oracle against the in-process server ----

func TestOracleAgreesWithServer(t *testing.T) {
	dir := t.TempDir()
	h := genHistory(5, smokeScale.jobs, smokeScale.days, 0)
	if err := writeHistoryDir(dir, newStore(h.jobs), h.series); err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(h.jobs)
	reqs := append(hotRequests(5, h), coldRequests(5, h, 150)...)
	for i := range reqs {
		code, body := serveOnce(srv, reqs[i].target)
		if code != 200 {
			t.Fatalf("%s answered %d: %s", reqs[i].target, code, body)
		}
		if err := o.check(&reqs[i], body); err != nil {
			t.Errorf("%s: %v", reqs[i].target, err)
		}
	}
	// A wrong row must be caught: drop one job from the oracle's input.
	short := newOracle(h.jobs[1:])
	q := newRequest(kindAggregate, "broad", "/api/v1/aggregate", map[string][]string{"metric": {"cpu_idle"}})
	_, body := serveOnce(srv, q.target)
	if h.jobs[0].Samples >= 1 && short.check(&q, body) == nil {
		t.Error("the oracle accepted an answer over a different row set")
	}
}

// ---- the HTTP client ----

func TestClientReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("0123456789", 2000) // above net/http's 2 KiB sniff buffer: sent chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Supremm-Coverage", "1")
		if r.URL.Path == "/big" {
			fmt.Fprint(w, big)
			return
		}
		fmt.Fprint(w, "small")
	}))
	defer srv.Close()
	c, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ { // keep-alive: the framing must leave the stream aligned
		for path, want := range map[string]string{"/big": big, "/small": "small"} {
			res, err := c.get(path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ok() || string(res.body) != want {
				t.Fatalf("%s: status %d coverage %q, body of %d bytes, want %d", path, res.status, res.coverage, len(res.body), len(want))
			}
		}
	}
}

// stallingServer answers every request at once except request number
// stallAt, which it holds for stall.
func stallingServer(t *testing.T, stallAt int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	served := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					for { // one request: lines up to the blank one
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						if line == "\r\n" {
							break
						}
					}
					mu.Lock()
					served++
					n := served
					mu.Unlock()
					if n == stallAt {
						time.Sleep(stall)
					}
					if _, err := conn.Write([]byte("HTTP/1.1 200 OK\r\nX-Supremm-Coverage: 1\r\nContent-Length: 2\r\n\r\nok")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopCountsLatencyFromDueInstant(t *testing.T) {
	const (
		rate  = 1000.0
		stall = 150 * time.Millisecond
	)
	addr := stallingServer(t, 100, stall)
	req := request{target: "/x"}
	req.render()
	st, err := runLoad(loadSpec{addr: addr, requests: []request{req}, order: []int32{0}, conns: 1,
		rate: rate, duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 {
		t.Fatalf("%d failed: %v", st.failed, st.firstErr)
	}
	// Every request that came due during the stall waited behind it. A
	// generator that timed from the send instant would see one slow
	// request; timing from the due instant sees about stall*rate/2 that
	// waited more than half the stall.
	slow := 0
	for _, l := range st.latency {
		if time.Duration(l) > stall/2 {
			slow++
		}
	}
	want := int(stall.Seconds() * rate / 2)
	if slow < want*8/10 {
		t.Errorf("%d requests saw more than %v, want about %d: the stall's queue is being omitted", slow, stall/2, want)
	}
	late := sortedCopy(st.late)
	if worst := time.Duration(late[len(late)-1]); worst < stall/2 {
		t.Errorf("worst lateness %v does not show the stall", worst)
	}
	// The schedule is kept: the stall delays requests, it does not drop them.
	if want := int(0.4 * rate); st.attempted < want*9/10 {
		t.Errorf("sent %d requests, the schedule holds %d", st.attempted, want)
	}
}

func TestClosedLoopSlowsWithTheServer(t *testing.T) {
	addr := stallingServer(t, 5, 100*time.Millisecond)
	req := request{target: "/x"}
	req.render()
	st, err := runLoad(loadSpec{addr: addr, requests: []request{req}, order: []int32{0}, conns: 1, total: 20})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, l := range st.latency {
		if time.Duration(l) > 50*time.Millisecond {
			slow++
		}
	}
	if st.attempted != 20 || slow != 1 {
		t.Errorf("closed loop: %d requests, %d slow; want 20 and exactly the stalled one", st.attempted, slow)
	}
}

func TestRefusedRepliesMissTheLimit(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Supremm-Coverage", "1")
		if served.Add(1)%3 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	req := request{target: "/x"}
	req.render()
	st, err := runLoad(loadSpec{addr: strings.TrimPrefix(srv.URL, "http://"), requests: []request{req},
		order: []int32{0}, conns: 1, total: 30})
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted != 30 || st.failed != 10 || len(st.latency) != 20 || len(st.late) != 20 {
		t.Fatalf("attempted %d, failed %d, %d latencies, %d latenesses; want 30, 10, 20, 20",
			st.attempted, st.failed, len(st.latency), len(st.late))
	}
	// However fast a refusal came back, it is outside any limit.
	r := newPassResult()
	r.windowMetrics(st.latency, st.attempted, st.elapsed, time.Hour)
	if got := r.e2e["within_limit_ratio"]; math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("within_limit_ratio = %v with a third of the replies refused, want 2/3", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want int64
	}{
		{100, 0.90, true, 90},
		{100, 0.99, false, 0},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{1000, 0.999, false, 0},
		{10000, 0.999, true, 9990},
		{9, 0.5, false, 0},
	} {
		got, ok := percentile(sample(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p=%v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// ---- compare ----

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 95, 125}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower by a fifth", lower, steady, scaled(1.2), verdictWorse},
		{"faster by a fifth", lower, steady, scaled(0.8), verdictBetter},
		{"higher is better, lower by a fifth", higher, steady, scaled(0.8), verdictWorse},
		{"higher is better, higher by a fifth", higher, steady, scaled(1.2), verdictBetter},
		{"within the bound", lower, steady, scaled(1.05), verdictWithin},
		{"parent too noisy to tell", lower, noisy, scaled(1.05), verdictUnresolved},
		{"noisy parent but every run far worse", lower, noisy, scaled(3), verdictWorse},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 0, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 40, End: 98},
		{Trace: 1, ID: 4, Parent: 3, Name: "c", Start: 50, End: 60},
	}
	self, coverage := selfTimes(spans, "root")
	if self["root"] != 2 || self["a"] != 40 || self["b"] != 48 || self["c"] != 10 {
		t.Errorf("self times %v", self)
	}
	if math.Abs(coverage-0.98) > 1e-12 {
		t.Errorf("root coverage %v, want 0.98", coverage)
	}
}

// ---- BENCHMARK.json and the emitted names ----

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkFileMatchesSpec(t *testing.T) {
	p, err := findPaths()
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run -C bench . spec`; regenerate it")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	names := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || names[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestSmokeAllWorkloads runs every workload at the small scale, both
// metric sets, and holds the emitted names to the spec.
func TestSmokeAllWorkloads(t *testing.T) {
	p, err := findPaths()
	if err != nil {
		t.Fatal(err)
	}
	buildTime, err := buildBinaries(p)
	if err != nil {
		t.Fatal(err)
	}
	seconds := 1.0
	if testing.Short() {
		seconds = 0.15
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && testing.Short() && (w.Name == wlHot || w.Name == wlCold) {
				continue // the same layer suite again; their replays run without -short
			}
			t0 := time.Now()
			res, info, err := runOne(p, buildTime, w.Name, 11, seconds, trace, smokeScale)
			t.Logf("%s trace=%v took %v", w.Name, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, info.Errors)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
				case v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %q", w.Name, trace, m.Name, v.Value, v.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(p.out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if w.Name == wlPipeline && res.Metrics["trace.root_coverage"].Value < 0.95 {
					t.Errorf("pipeline_rep children cover %v of their roots", res.Metrics["trace.root_coverage"].Value)
				}
			}
		}
	}
}
