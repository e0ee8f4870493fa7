package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
)

// Fixture sizes. The issue's prototype sized raw trees at 48 nodes x 10
// days; the driver's time cap (every run sets up three times) forces the
// smaller tree, which keeps the same files-per-host shape.
const (
	rawNodes = 24
	rawDays  = 5

	historyJobs    = 200000
	historyDays    = 120
	historyUsers   = 500
	historyAppends = 30 // one-day batches available to the writer
	clusterName    = "ranger"

	// historyDay0 is the epoch day of the first job end (2011-01-26).
	historyDay0 = 15000
)

var (
	historyApps = []string{"namd", "amber", "gromacs", "wrf", "lammps", "vasp"}
	// Science names carry spaces on purpose: they exercise URL escaping.
	historySciences = []string{"Molecular Biosciences", "Atmospheric Sciences", "Materials Research"}
)

// history is the synthetic warehouse the query workloads serve: the
// base rows (ordered by end day, as cmd/ingest leaves them), the
// system series, and the pre-generated one-day appends. The same slices
// are the oracle's input.
type history struct {
	jobs    []JobRecord
	series  []SystemSample
	appends [][]JobRecord
	users   []string
}

// genHistory is a pure function of its arguments.
func genHistory(seed int64, jobs, days, appends int) *history {
	rng := rand.New(rand.NewSource(seed))
	h := &history{}
	for u := 0; u < historyUsers; u++ {
		h.users = append(h.users, fmt.Sprintf("user%04d", u))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, historyUsers-1)
	// Each app has its own metric centre so group-bys and profiles differ.
	type centre struct{ idle, flops, mem, scratch, ib float64 }
	centres := make([]centre, len(historyApps))
	for i := range centres {
		centres[i] = centre{
			idle:    0.05 + 0.3*rng.Float64(),
			flops:   0.5 + 4*rng.Float64(),
			mem:     2 + 20*rng.Float64(),
			scratch: 0.1 + 5*rng.Float64(),
			ib:      1 + 40*rng.Float64(),
		}
	}
	nextID := int64(1000000)
	genJob := func(day int64) JobRecord {
		app := rng.Intn(len(historyApps))
		c := centres[app]
		nodes := 1 << rng.Intn(7) // 1..64
		wall := int64(300 * math.Exp(rng.NormFloat64()*1.1+2.2))
		if wall < 120 {
			wall = 120
		}
		if wall > 172800 {
			wall = 172800
		}
		end := day*secondsPerDay + rng.Int63n(secondsPerDay)
		noise := func() float64 { return math.Exp(rng.NormFloat64() * 0.3) }
		idle := math.Min(0.99, c.idle*noise())
		sys := 0.02 + 0.05*rng.Float64()
		status := "COMPLETED"
		switch r := rng.Float64(); {
		case r < 0.04:
			status = "FAILED"
		case r < 0.07:
			status = "TIMEOUT"
		}
		memUsed := c.mem * noise()
		nextID++
		return JobRecord{
			JobID: nextID, Cluster: clusterName,
			User:    h.users[zipf.Uint64()],
			App:     historyApps[app],
			Science: historySciences[app/2],
			Nodes:   nodes,
			Submit:  end - wall - rng.Int63n(7200), Start: end - wall, End: end,
			Status:         status,
			CPUIdleFrac:    idle,
			CPUUserFrac:    math.Max(0, 1-idle-sys),
			CPUSysFrac:     sys,
			MemUsedGB:      memUsed,
			MemUsedMaxGB:   memUsed * (1.2 + 0.8*rng.Float64()),
			FlopsGF:        c.flops * noise(),
			ScratchWriteMB: c.scratch * noise(),
			WorkWriteMB:    0.05 * noise(),
			ReadMB:         0.4 * noise(),
			IBTxMB:         c.ib * noise(),
			IBRxMB:         c.ib * noise(),
			LnetTxMB:       0.8 * noise(),
			Samples:        int(wall / 600),
		}
	}
	h.jobs = make([]JobRecord, 0, jobs)
	for i := 0; i < jobs; i++ {
		h.jobs = append(h.jobs, genJob(historyDay0+int64(i)*int64(days)/int64(jobs)))
	}
	perDay := jobs / days
	for a := 0; a < appends; a++ {
		batch := make([]JobRecord, 0, perDay)
		for i := 0; i < perDay; i++ {
			batch = append(batch, genJob(historyDay0+int64(days+a)))
		}
		h.appends = append(h.appends, batch)
	}
	// Ten-minute system samples over the base days, as cmd/ingest's
	// bucketing produces; the peak active-node count sets the realm's
	// node scale.
	for t := int64(historyDay0) * secondsPerDay; t < int64(historyDay0+days)*secondsPerDay; t += 600 {
		busy := 400 + rng.Intn(100)
		h.series = append(h.series, SystemSample{
			Time: t + 600, ActiveNodes: 512, BusyNodes: busy,
			QueuedJobs: rng.Intn(200), RunningJobs: busy / 8,
			TotalTFlops: 1.5 * noise01(rng), MemPerNode: 9 * noise01(rng),
			CPUUserFrac: 0.8, CPUSysFrac: 0.04, CPUIdleFrac: 0.16 * noise01(rng),
			ScratchMBps: 900 * noise01(rng), WorkMBps: 30 * noise01(rng),
			IBTxMBps: 8000 * noise01(rng), LnetTxMBps: 400 * noise01(rng),
		})
	}
	return h
}

func noise01(rng *rand.Rand) float64 { return 0.8 + 0.4*rng.Float64() }

// writeHistoryDir lands the data directory cmd/ingest would have
// written for st, through the same writers, except jobs.jsonl: the
// daemon never opens it beside a manifest, and encoding 200k JSON lines
// would be the largest part of every set-up.
func writeHistoryDir(dir string, st *Store, series []SystemSample) error {
	if err := writeBinary(dir, st); err != nil {
		return err
	}
	if err := writeSeries(dir, series); err != nil {
		return err
	}
	if err := writeCleanQuality(dir, historyDays); err != nil {
		return err
	}
	return writeShardDir(dir, st)
}

// ---- request lists ----

type reqKind int

const (
	kindAggregate reqKind = iota
	kindDistribution
	kindQuery
	kindDashboard // checked for status and coverage only; no oracle
)

// request is one pre-rendered GET plus the decoded form the oracle and
// the in-process kernel calls need.
type request struct {
	target string // path?query
	raw    []byte // the bytes sent on the wire
	kind   reqKind
	class  string // selective | window | broad | groupby | dashboard

	metric  Metric
	metrics []Metric
	filter  Filter
	bins    int
	group   string
	limit   int
}

func (r *request) render() {
	r.raw = []byte("GET " + r.target + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func newRequest(kind reqKind, class, path string, q url.Values) request {
	r := request{kind: kind, class: class, target: path, limit: 20, bins: 20,
		metrics: keyMetrics(), group: "user"}
	if len(q) > 0 {
		r.target += "?" + q.Encode()
	}
	r.metric = Metric(q.Get("metric"))
	r.filter = Filter{User: q.Get("user"), MinSamples: 1}
	if v := q.Get("endafter"); v != "" {
		r.filter.EndAfter, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := q.Get("endbefore"); v != "" {
		r.filter.EndBefore, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := q.Get("bins"); v != "" {
		r.bins, _ = strconv.Atoi(v)
	}
	if v := q.Get("limit"); v != "" {
		r.limit, _ = strconv.Atoi(v)
	}
	if v := q.Get("group"); v != "" {
		r.group = v
	}
	if v := q.Get("metrics"); v != "" {
		r.metrics = nil
		for _, m := range strings.Split(v, ",") {
			r.metrics = append(r.metrics, Metric(m))
		}
	}
	r.render()
	return r
}

func dayStart(day int) int64 { return int64(historyDay0+day) * secondsPerDay }

// hotRequests returns the 64 distinct URLs of the query-hot mix, most
// popular first: 32 selective aggregates, 16 seven-day windows, 8
// per-user group-bys and 8 dashboard endpoints. The seed decides which
// user, metric, window or endpoint each is; which kind of request holds
// which popularity rank is fixed, because a dashboard answer is a
// hundred times the bytes of an aggregate and the first rank alone takes
// a quarter of the traffic: with the ranks dealt at random, what a
// request cost differed by a fifth from one seed to the next.
func hotRequests(seed int64, h *history) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	ms := allMetrics()
	var out []request
	seen := map[string]bool{}
	add := func(r request) bool {
		if seen[r.target] {
			return false
		}
		seen[r.target] = true
		out = append(out, r)
		return true
	}
	for len(out) < 32 {
		add(newRequest(kindAggregate, "selective", "/api/v1/aggregate", url.Values{
			"metric": {string(ms[rng.Intn(len(ms))])},
			"user":   {h.users[rng.Intn(40)]},
		}))
	}
	for len(out) < 48 {
		d := rng.Intn(historyDays - 7)
		add(newRequest(kindAggregate, "window", "/api/v1/aggregate", url.Values{
			"metric":    {string(ms[rng.Intn(len(ms))])},
			"endafter":  {strconv.FormatInt(dayStart(d), 10)},
			"endbefore": {strconv.FormatInt(dayStart(d+7), 10)},
		}))
	}
	for len(out) < 56 {
		add(newRequest(kindQuery, "groupby", "/api/v1/query", url.Values{
			"group": {"app"},
			"user":  {h.users[rng.Intn(40)]},
		}))
	}
	dashboards := []string{
		"/api/v1/profiles/users", "/api/v1/profiles/apps", "/api/v1/efficiency",
		"/api/v1/workload", "/api/v1/trends", "/api/v1/quality",
		"/api/v1/report?suite=admin", "/api/v1/report?suite=manager",
	}
	for _, i := range rng.Perm(len(dashboards)) {
		r := request{kind: kindDashboard, class: "dashboard", target: dashboards[i]}
		r.render()
		add(r)
	}
	// Every eight ranks hold four selective aggregates, two windows, a
	// group-by and a dashboard, in this order.
	next := map[byte]int{'s': 0, 'w': 32, 'g': 48, 'd': 56}
	ranked := make([]request, 0, len(out))
	for len(ranked) < len(out) {
		for _, class := range []byte("swsgswsd") {
			ranked = append(ranked, out[next[class]])
			next[class]++
		}
	}
	return ranked
}

// zipfOrder draws n indexes into a list of size k, Zipf-distributed so
// the first few entries take most of the traffic.
func zipfOrder(seed int64, n, k int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed^0x6f7264)), 1.1, 1, uint64(k-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// coldRequests returns n never-repeated URLs, i.i.d. thirds: selective
// aggregates, broad scans (aggregate or distribution over 1, 7, 30 or
// 120 days) and group-bys.
func coldRequests(seed int64, h *history, n int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	ms := allMetrics()
	metric := func() string { return string(ms[rng.Intn(len(ms))]) }
	// window returns a span of the given days at a random second offset,
	// which is what keeps every URL distinct.
	window := func(days int) (string, string) {
		lo := dayStart(0) - 3600
		if historyDays > days {
			lo = dayStart(rng.Intn(historyDays - days))
		}
		lo += rng.Int63n(secondsPerDay)
		return strconv.FormatInt(lo, 10), strconv.FormatInt(lo+int64(days)*secondsPerDay, 10)
	}
	spans := []int{1, 7, 30, 120}
	groups := []string{"user", "app", "science"}
	out := make([]request, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		var r request
		switch rng.Intn(3) {
		case 0:
			a, b := window(7 + rng.Intn(60))
			r = newRequest(kindAggregate, "selective", "/api/v1/aggregate", url.Values{
				"metric": {metric()}, "user": {h.users[rng.Intn(historyUsers)]},
				"endafter": {a}, "endbefore": {b},
			})
		case 1:
			a, b := window(spans[rng.Intn(len(spans))])
			if rng.Intn(2) == 0 {
				r = newRequest(kindAggregate, "broad", "/api/v1/aggregate", url.Values{
					"metric": {metric()}, "endafter": {a}, "endbefore": {b},
				})
			} else {
				r = newRequest(kindDistribution, "broad", "/api/v1/distribution", url.Values{
					"metric": {metric()}, "bins": {strconv.Itoa(10 + rng.Intn(40))},
					"endafter": {a}, "endbefore": {b},
				})
			}
		default:
			a, b := window(spans[rng.Intn(len(spans))])
			names := make([]string, 1+rng.Intn(4))
			for i, pos := range rng.Perm(len(ms))[:len(names)] {
				names[i] = string(ms[pos])
			}
			r = newRequest(kindQuery, "groupby", "/api/v1/query", url.Values{
				"group": {groups[rng.Intn(len(groups))]}, "metrics": {strings.Join(names, ",")},
				"limit": {strconv.Itoa(5 + rng.Intn(40))}, "endafter": {a}, "endbefore": {b},
			})
		}
		if !seen[r.target] {
			seen[r.target] = true
			out = append(out, r)
		}
	}
	return out
}

// sequentialOrder is the cold list's order: each URL once, in list order.
func sequentialOrder(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
