package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/core"
	"supremm/internal/reference"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// refQuery is what the reference is asked for one data request: the
// API's defaults (params.go) restated, then each parameter of the URL
// applied — parsed here, not by decodeParams, so that the request
// decoder is under test as well.
type refQuery struct {
	path        string
	metric      store.Metric
	metrics     []store.Metric
	group       store.GroupKey
	filter      store.Filter
	limit, bins int
	normalize   bool
}

func parseTarget(t testing.TB, target string) refQuery {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	q := refQuery{path: u.Path, metrics: store.KeyMetrics(), group: store.ByUser, filter: store.Filter{MinSamples: 1}, limit: 20, bins: 20}
	num := func(v string) int64 {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for key, vals := range u.Query() {
		v := vals[0]
		switch key {
		case "metric":
			q.metric = store.Metric(v)
		case "metrics":
			q.metrics = nil
			for _, m := range strings.Split(v, ",") {
				q.metrics = append(q.metrics, store.Metric(m))
			}
		case "group":
			q.group = map[string]store.GroupKey{"user": store.ByUser, "app": store.ByApp, "science": store.ByScience, "cluster": store.ByCluster, "status": store.ByStatus}[v]
		case "cluster":
			q.filter.Cluster = v
		case "user":
			q.filter.User = v
		case "app":
			q.filter.App = v
		case "science":
			q.filter.Science = v
		case "status":
			q.filter.Status = v
		case "minsamples":
			q.filter.MinSamples = int(num(v))
		case "endafter":
			q.filter.EndAfter = num(v)
		case "endbefore":
			q.filter.EndBefore = num(v)
		case "limit":
			q.limit = int(num(v))
		case "bins":
			q.bins = int(num(v))
		case "normalize":
			q.normalize = v == "true"
		default:
			t.Fatalf("%s: the reference has no meaning for parameter %q", target, key)
		}
	}
	return q
}

// referenceBody renders what the daemon must answer to target when it
// serves parts, the rows of its day shards: the reference's answer
// through the endpoint's own DTO constructor and marshalBody.
func referenceBody(t testing.TB, parts reference.Parts, target string) []byte {
	t.Helper()
	q := parseTarget(t, target)
	cluster := "unknown" // newRealm's name for a realm without rows
	if len(parts) > 0 {
		cluster = parts[0][0].Cluster
	}
	f := q.filter
	if f.Cluster == "" {
		f.Cluster = cluster
	}
	var v any
	switch q.path {
	case "/api/v1/aggregate":
		v = newAggDTO(q.metric, parts.Aggregate(q.metric, f))
	case "/api/v1/distribution":
		vals := parts.Values(q.metric, f)
		lo, hi := 0.0, 0.0
		if len(vals) > 0 {
			lo, hi = stats.MinMax(vals)
		}
		v = newDistributionDTO(q.metric, stats.NewHistogram(vals, lo, hi, q.bins))
	case "/api/v1/query":
		v = newQueryDTO(parts.Query(cluster, core.Query{GroupBy: q.group, Metrics: q.metrics, Filter: q.filter, Limit: q.limit, Normalize: q.normalize}))
	case "/api/v1/workload":
		v = newWorkloadDTO(cluster, parts.Characterize(store.Filter{Cluster: cluster, MinSamples: 1}))
	default:
		t.Fatalf("the reference does not answer %s", q.path)
	}
	body, err := marshalBody(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fuzzInput hands out the fuzzer's bytes as small choices; an exhausted
// input chooses 0, so every input, the empty one too, is a valid case.
type fuzzInput struct {
	data []byte
	at   int
}

// next chooses one of n.
func (in *fuzzInput) next(n int) int {
	if in.at >= len(in.data) {
		return 0
	}
	in.at++
	return int(in.data[in.at-1]) % n
}

// pick chooses none (false) two times in three, else one of vals.
func (in *fuzzInput) pick(vals ...string) (string, bool) {
	i := in.next(3*len(vals)) - 2*len(vals)
	if i < 0 {
		return "", false
	}
	return vals[i], true
}

// value draws a metric value: NaN or ±Inf one time in ten, else a value
// whose sums round, a negative or a signed zero.
func (in *fuzzInput) value() float64 {
	finite := []float64{0.1, 0.25, 0.3, 0.7, 1, 2.5, 7.25, 1e-3, -1, 0, math.Copysign(0, -1)}
	switch i := in.next(30); i {
	case 27:
		return math.NaN()
	case 28:
		return math.Inf(1)
	case 29:
		return math.Inf(-1)
	default:
		return finite[i%len(finite)]
	}
}

// rows derives 1–5 end days of 1–6 jobs each, job ends ascending, over
// two clusters (one job in four on the second), three repeated users,
// wall times of whole 10-minute steps (zero included: a zero weight) and
// every metric drawn by value. One day may have no sampled row (dry, -1
// for none), and one may be rotted (rot, -1 for none).
func (in *fuzzInput) rows() (rows []store.JobRecord, days []int64, rot int) {
	n := 1 + in.next(5)
	dry, rot := in.next(n+1)-1, in.next(2*n)-n
	day := int64(20000)
	for d := 0; d < n; d++ {
		day += int64(1 + in.next(3))
		days = append(days, day)
		for j, jobs := 0, 1+in.next(6); j < jobs; j++ {
			r := store.JobRecord{
				JobID: int64(len(rows) + 1), Cluster: []string{"ranger", "ranger", "ranger", "lonestar4"}[in.next(4)],
				User: "u" + strconv.Itoa(in.next(3)), App: []string{"namd", "amber", "wrf"}[in.next(3)],
				Science: []string{"Chemistry", "Physics"}[in.next(2)], Status: []string{"completed", "failed"}[in.next(2)],
				Nodes: in.next(5), Samples: in.next(4),
				End: day*store.SecondsPerDay + int64(3600*j+in.next(256)),
			}
			if d == dry {
				r.Samples = 0
			}
			r.Start = r.End - int64(600*in.next(8))
			r.Submit = r.Start - 60
			for _, m := range []*float64{&r.CPUIdleFrac, &r.CPUUserFrac, &r.CPUSysFrac, &r.MemUsedGB, &r.MemUsedMaxGB, &r.FlopsGF,
				&r.ScratchWriteMB, &r.WorkWriteMB, &r.ReadMB, &r.IBTxMB, &r.IBRxMB, &r.LnetTxMB} {
				*m = in.value()
			}
			rows = append(rows, r)
		}
	}
	return rows, days, rot
}

// targets derives one to six requests of the differential endpoints,
// each parameter of an endpoint's row of the table drawn or left out; a
// window bound is a job's end, a second after it, a day's start, 1 (the
// empty window) or beyond every job.
func (in *fuzzInput) targets(t *testing.T, rows []store.JobRecord, days []int64) []string {
	paths := []string{"/api/v1/aggregate", "/api/v1/distribution", "/api/v1/query", "/api/v1/workload"}
	bound := func() (string, bool) {
		end, day := rows[in.next(len(rows))].End, days[in.next(len(days))]
		return in.pick(strconv.FormatInt(end, 10), strconv.FormatInt(end+1, 10),
			strconv.FormatInt(day*store.SecondsPerDay, 10), "1", strconv.FormatInt(1<<40, 10))
	}
	var metrics []string
	for _, m := range store.AllMetrics() {
		metrics = append(metrics, string(m))
	}
	var out []string
	for n := 1 + in.next(6); len(out) < n; {
		path := paths[in.next(len(paths))]
		q := url.Values{}
		for _, ep := range endpoints {
			if ep.path != path {
				continue
			}
			for _, key := range ep.keys {
				var v string
				ok := true
				switch key {
				case "metric": // required
					v = metrics[in.next(len(metrics))]
				case "metrics":
					// Distinct, in drawn order: with normalize=true, RunQuery
					// divides a repeated metric by its fleet mean once per
					// repetition, and the reference once.
					seen := map[string]bool{}
					for k := 1 + in.next(4); k > 0; k-- {
						if m := metrics[in.next(len(metrics))]; !seen[m] {
							seen[m] = true
							v += "," + m
						}
					}
					v, ok = v[1:], in.next(2) == 1
				case "group":
					v, ok = in.pick("user", "app", "science", "cluster", "status")
				case "limit":
					v, ok = in.pick("1", "2", "5")
				case "normalize":
					v, ok = in.pick("true", "false")
				case "bins":
					v, ok = in.pick("1", "3", "12")
				case "cluster":
					v, ok = in.pick("ranger", "lonestar4", "nonesuch")
				case "user":
					v, ok = in.pick("u0", "u1", "u2", "nobody")
				case "app":
					v, ok = in.pick("namd", "wrf", "nonesuch")
				case "science":
					v, ok = in.pick("Chemistry", "Physics")
				case "status":
					v, ok = in.pick("completed", "failed")
				case "minsamples":
					v, ok = in.pick("0", "1", "2", "5")
				case "endafter", "endbefore":
					v, ok = bound()
				default:
					t.Fatalf("%s takes %q, for which the fuzz draws no values", path, key)
				}
				if ok {
					q.Set(key, v)
				}
			}
		}
		if len(q) > 0 {
			path += "?" + q.Encode()
		}
		out = append(out, path)
	}
	return out
}

// FuzzServeDifferential holds the daemon's answers over HTTP to the
// reference. One input derives a data directory — 1–5 end days, two
// clusters, NaN and ±Inf metrics, repeated users, in some inputs a day
// with no sampled row — and, in some, rots one day's shard with no
// backing to repair it from, so that the daemon serves the other days
// degraded. The other derives requests of /api/v1/aggregate, /distribution,
// /query and /workload from the endpoint table's own parameter keys and
// asks each three times: cold, warm (the response cache is off, so the
// shards answer from what they remember), and after a forced reload
// that adopts every shard. Every body must equal the reference's
// rendering over the served rows byte for byte, and the coverage header
// must be the served rows' share of the manifest's.
func FuzzServeDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, dirBytes, askBytes []byte) {
		rows, days, rot := (&fuzzInput{data: dirBytes}).rows()
		targets := (&fuzzInput{data: askBytes}).targets(t, rows, days)
		dir := t.TempDir()
		st := store.New()
		for _, r := range rows {
			st.Add(r)
		}
		if err := store.WriteShardDir(dir, st); err != nil {
			t.Fatal(err)
		}
		served := rows
		if rot >= 0 {
			path := filepath.Join(dir, store.ShardFileName(days[rot]))
			shard, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			shard[len(shard)/2] ^= 0xff
			if err := os.WriteFile(path, shard, 0o644); err != nil {
				t.Fatal(err)
			}
			served = nil
			for _, r := range rows {
				if store.EpochDay(r.End) != days[rot] {
					served = append(served, r)
				}
			}
		}
		srv, err := New(Config{DataDir: dir, SelfHeal: true, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		parts := reference.ByEndDay(served)
		coverage := strconv.FormatFloat(float64(len(served))/float64(len(rows)), 'g', 6, 64)
		ask := func(pass string) {
			t.Helper()
			for _, target := range targets {
				rec := getRec(srv, target)
				if want := referenceBody(t, parts, target); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("%s %s = %d\n%s\nthe reference over %d of %d rows says\n%s", pass, target, rec.Code, rec.Body.Bytes(), len(served), len(rows), want)
				}
				if got := rec.Header().Get("X-Supremm-Coverage"); got != coverage {
					t.Fatalf("%s %s: X-Supremm-Coverage %q, want %q (%d of %d rows)", pass, target, got, coverage, len(served), len(rows))
				}
			}
		}
		ask("cold")
		ask("warm")
		snap, err := srv.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if snap.ShardsReused != snap.Shards {
			t.Fatalf("forced reload adopted %d of %d shards, want every one", snap.ShardsReused, snap.Shards)
		}
		ask("reloaded")
	})
}
