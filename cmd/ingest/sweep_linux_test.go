package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/reference"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/sim"
	"supremm/internal/store"
)

// watchLandings watches dir for files renamed into it and returns a
// function that stops the watch and reports their names in the order
// they landed. Every output of cmd/ingest lands by rename
// (store.AtomicWriteFile), so this is the run's own account of its
// landing order — no hook in the writer. Linux inotify keeps the events
// queued in order until they are read.
func watchLandings(t *testing.T, dir string) func() []string {
	t.Helper()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify: %v", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		t.Skipf("inotify watch: %v", err)
	}
	return func() (names []string) {
		defer syscall.Close(fd)
		buf := make([]byte, 64<<10)
		for {
			n, err := syscall.Read(fd, buf)
			if err != nil || n <= 0 {
				return names // EAGAIN: the queue is drained
			}
			for off := 0; off+syscall.SizeofInotifyEvent <= n; {
				nameLen := int(binary.NativeEndian.Uint32(buf[off+12:]))
				name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+nameLen]
				names = append(names, strings.TrimRight(string(name), "\x00"))
				off += syscall.SizeofInotifyEvent + nameLen
			}
		}
	}
}

// jobAnswers is what the sweep compares: the aggregate of two metrics
// and a group-by with its fleet means, every float by its bits (JSON
// round-trips a float64 exactly).
type jobAnswers struct {
	Agg   [2]aggAnswer
	Query struct {
		FleetMeans map[string]float64 `json:"fleet_means"`
		Groups     []groupAnswer      `json:"groups"`
	}
}

type groupAnswer struct {
	Key       string             `json:"key"`
	N         int                `json:"n"`
	NodeHours float64            `json:"node_hours"`
	Mean      map[string]float64 `json:"mean"`
}

type aggAnswer struct {
	N              int     `json:"n"`
	NodeHours      float64 `json:"node_hours"`
	Mean           float64 `json:"mean"`
	StdDev         float64 `json:"stddev"`
	Min            float64 `json:"min"`
	Max            float64 `json:"max"`
	UnweightedMean float64 `json:"unweighted_mean"`
}

var sweepMetrics = [2]store.Metric{store.MetricCPUIdle, store.MetricMemUsed}

// askJobs puts the sweep's questions to a running daemon.
func askJobs(t *testing.T, srv *serve.Server) (got jobAnswers) {
	t.Helper()
	ask := func(target string, into any) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", target, rec.Code, rec.Body.Bytes())
		}
		if cov := rec.Header().Get("X-Supremm-Coverage"); cov != "1" {
			t.Errorf("%s: X-Supremm-Coverage %q, want 1", target, cov)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range sweepMetrics {
		ask("/api/v1/aggregate?metric="+string(m), &got.Agg[i])
	}
	ask("/api/v1/query?group=user&metrics=cpu_idle,mem_used&limit=10000", &got.Query)
	return got
}

// naiveJobs answers the same questions from the rows of dir's
// jobs.jsonl through the naive reference (internal/reference), cut into
// job-end days as the shards are — no store kernel.
func naiveJobs(t *testing.T, dir string) (want jobAnswers) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]store.JobRecord, st.Len())
	for i := range rows {
		rows[i] = st.Record(i)
	}
	parts := reference.ByEndDay(rows)
	// The analysis population: the realm's cluster, jobs longer than one
	// sampling interval.
	pop := store.Filter{Cluster: rows[0].Cluster, MinSamples: 1}

	want.Query.FleetMeans = map[string]float64{}
	for i, m := range sweepMetrics {
		a := parts.Aggregate(m, pop)
		want.Agg[i] = aggAnswer{a.N, a.NodeHours, a.Mean, a.StdDev, a.Min, a.Max, a.UnweightedMean}
		want.Query.FleetMeans[string(m)] = a.Mean
	}
	for _, g := range parts.GroupBy(store.ByUser, sweepMetrics[:], pop) {
		mean := map[string]float64{}
		for m, v := range g.Mean {
			mean[string(m)] = v
		}
		want.Query.Groups = append(want.Query.Groups, groupAnswer{g.Key, g.N, g.NodeHours, mean})
	}
	return want
}

// dirState maps every file name in dir to its size and inode: what a
// daemon that only reads leaves exactly as it found it.
func dirState(t *testing.T, dir string) map[string][2]uint64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][2]uint64{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = [2]uint64{uint64(info.Size()), info.Sys().(*syscall.Stat_t).Ino}
	}
	return out
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		land(t, src, dst, e.Name())
	}
}

// land puts src's version of name into dst by rename, as the writer
// lands it.
func land(t *testing.T, src, dst, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dst, "."+name+".landing")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dst, name)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweepServesOldOrNew is the enumerated crash sweep: the real
// writer lands batch N, then batch N+1 (one new job-end day, and late
// jobs into a day N already wrote) on top of it; the landing order of
// N+1 is taken from that run itself. For every prefix of the order —
// the first k files new, the rest still N's, which is every state a
// kill of cmd/ingest between two renames can leave, "changed shards
// landed (the rest content-skipped), manifest not yet written" among
// them — and for each also with the half-written temp file of the next
// output lying about, a daemon serving N polls once and must answer
// exactly N's rows or exactly N+1's (a naive per-row reference) at
// coverage 1, having renamed, removed and written nothing; and once the
// remaining files land, one poll serves N+1. Both policies.
//
// series.jsonl and quality.json are each atomic but outside the
// manifest, so a prefix may pair N's jobs with N+1's series; the sweep
// asserts job answers only.
func TestCrashSweepServesOldOrNew(t *testing.T) {
	work := t.TempDir()
	rawDir := filepath.Join(work, "raw")
	cfg := sim.DefaultConfig(cluster.RangerConfig().Scaled(4), 18)
	cfg.DurationMin = 3 * 24 * 60
	cfg.Shutdowns, cfg.NodeMTBFHours = nil, 0
	cfg.Gen.UtilizationTarget = 2
	cfg.RawDir = rawDir
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Batch N+1 is the whole accounting log; batch N lacks the last
	// job-end day and the last two jobs of the day before.
	acct := append([]sched.AcctRecord(nil), res.Acct...)
	sort.SliceStable(acct, func(i, j int) bool { return acct[i].End < acct[j].End })
	lastDay := store.EpochDay(acct[len(acct)-1].End)
	cut := sort.Search(len(acct), func(i int) bool { return store.EpochDay(acct[i].End) >= lastDay })
	if cut < 4 || store.EpochDay(acct[cut-3].End) != lastDay-1 {
		t.Fatalf("fixture: %d of %d jobs end before the last day %d", cut, len(acct), lastDay)
	}
	writeAcct := func(name string, recs []sched.AcctRecord) string {
		path := filepath.Join(work, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.WriteAcct(f, recs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	acctOld, acctNew := writeAcct("acct-n", acct[:cut-2]), writeAcct("acct-n1", acct)

	dirOld, dirNew := filepath.Join(work, "n"), filepath.Join(work, "n1")
	if err := run(rawDir, acctOld, dirOld); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dirOld, dirNew)
	landed := watchLandings(t, dirNew)
	if err := run(rawDir, acctNew, dirNew); err != nil {
		t.Fatal(err)
	}
	order := landed()
	t.Logf("batch N+1 landed %v", order)
	if n := len(order); n < 7 || order[n-1] != store.ManifestFile ||
		order[n-2] != store.ShardFileName(lastDay) || order[n-3] != store.ShardFileName(lastDay-1) {
		t.Fatalf("landing order %v: want the monoliths, series and quality, then the two changed day shards %d and %d, the manifest last",
			order, lastDay-1, lastDay)
	}

	wantOld, wantNew := naiveJobs(t, dirOld), naiveJobs(t, dirNew)
	if reflect.DeepEqual(wantOld, wantNew) {
		t.Fatal("fixture: batch N and batch N+1 answer alike")
	}

	for _, selfHeal := range []bool{false, true} {
		for k := 0; k <= len(order); k++ {
			for _, debris := range []bool{false, true} {
				if debris && k == len(order) {
					continue
				}
				what := fmt.Sprintf("self-heal %v, %d of %d files landed, temp debris %v", selfHeal, k, len(order), debris)
				dir := filepath.Join(work, fmt.Sprintf("sweep-%v-%d-%v", selfHeal, k, debris))
				copyDir(t, dirOld, dir)
				srv, err := serve.New(serve.Config{DataDir: dir, SelfHeal: selfHeal, ScrubBudgetBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				if got := askJobs(t, srv); !reflect.DeepEqual(got, wantOld) {
					t.Fatalf("%s: the daemon over batch N does not answer as the naive reference:\n%+v\n%+v", what, got, wantOld)
				}

				for _, name := range order[:k] {
					land(t, dirNew, dir, name)
				}
				if debris {
					half, err := os.ReadFile(filepath.Join(dirNew, order[k]))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, "."+order[k]+".tmp4242"), half[:len(half)/2], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				before := dirState(t, dir)
				_, pollErr := srv.MaybeReload()
				if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
					t.Errorf("%s: the poll changed the directory:\n%v\n%v", what, before, after)
				}
				snap := srv.Snapshot()
				if snap.Coverage.Degraded || snap.Coverage.Ratio != 1 {
					t.Errorf("%s: coverage %+v (poll error %v)", what, snap.Coverage, pollErr)
				}
				got := askJobs(t, srv)
				switch {
				case reflect.DeepEqual(got, wantOld):
				case reflect.DeepEqual(got, wantNew) && k == len(order):
				default:
					t.Errorf("%s: job answers are neither batch N's nor (with the manifest landed) batch N+1's (poll error %v):\n%+v", what, pollErr, got)
				}

				for _, name := range order[k:] {
					land(t, dirNew, dir, name)
				}
				if _, err := srv.MaybeReload(); err != nil {
					t.Errorf("%s: poll after the rest landed: %v", what, err)
				}
				if got := askJobs(t, srv); !reflect.DeepEqual(got, wantNew) {
					t.Errorf("%s: after the rest landed the daemon does not serve batch N+1", what)
				}
			}
		}
	}
}
