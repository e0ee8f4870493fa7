package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// scale sizes the fixtures. The driver and `bench record` use fullScale;
// the self-tests use smokeScale.
type scale struct {
	jobs, days        int // history
	rawNodes, rawDays int // raw trees
	setups            int // how many times a run sets up (the median time is reported)
	coldURLs          int
	verifyURLs        int     // URLs re-fetched and compared with the oracle
	openRate          float64 // reload-under-load request rate
	appendEvery       time.Duration
	hitProbe          time.Duration
	layerBudget       time.Duration // per in-process measurement
	replayHot         int           // requests in the traced replay of the hot mix
	replayCold        int           // and of the cold list, per side of the overhead ratio
	spinIters         int           // length of the machine-speed loop
}

// forTrace shortens the parts of a pass the traced run only needs for
// its counters: the layer suite takes most of that run's time.
func (sc scale) forTrace() scale {
	sc.setups, sc.verifyURLs = 1, 50
	sc.hitProbe /= 2
	return sc
}

var fullScale = scale{
	jobs: historyJobs, days: historyDays, rawNodes: rawNodes, rawDays: rawDays,
	setups: 5, coldURLs: 16000, verifyURLs: 200, openRate: 2000,
	appendEvery: 2 * time.Second, hitProbe: time.Second,
	layerBudget: 120 * time.Millisecond, replayHot: 2000, replayCold: 100,
	spinIters: 20_000_000,
}

var smokeScale = scale{
	jobs: 2000, days: 12, rawNodes: 4, rawDays: 1,
	setups: 1, coldURLs: 2000, verifyURLs: 200, openRate: 500,
	appendEvery: 300 * time.Millisecond, hitProbe: 100 * time.Millisecond,
	layerBudget: 2 * time.Millisecond, replayHot: 200, replayCold: 20,
	spinIters: 200_000,
}

// runCtx is one invocation's environment.
type runCtx struct {
	p       paths
	work    string // scratch directory of this invocation, removed at exit
	seed    int64
	seconds float64
	sc      scale
	trace   bool
	trees   [2]*rawTree // made on first use by rawTrees
}

func (rc *runCtx) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

func loadConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// passResult is what one pass over a workload measured.
type passResult struct {
	attempted, failed int
	errs              []error // the first few failures, for the log
	setupS            []float64
	e2e               map[string]float64
	layer             map[string]float64
}

func newPassResult() *passResult {
	return &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one operation outside the timed loops and, when it failed,
// keeps the first few errors for the log.
func (r *passResult) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// windowMetrics records what a timed window's operations say: lat holds
// the latency (ns) of each that succeeded, attempted counts the failed
// and refused ones too. Those have no latency and so miss the workload's
// latency limit. The tail percentiles are reported but not gated: a
// percentile that sits inside a stall moves with the stall's length from
// run to run, the share of operations a stall touches moves far less.
func (r *passResult) windowMetrics(lat []int64, attempted int, elapsed, limit time.Duration) {
	s := sortedCopy(lat)
	within := sort.Search(len(s), func(i int) bool { return s[i] > int64(limit) })
	r.e2e["latency_p50_ms"] = float64(median(s)) / 1e6
	r.e2e["ops_per_s"] = float64(len(s)) / elapsed.Seconds()
	r.e2e["within_limit_ratio"] = float64(within) / float64(attempted)
	r.layer["pass.latency_p90_ms"] = float64(s[min(len(s)-1, len(s)*9/10)]) / 1e6
	p99, ok := percentile(s, 0.99)
	if !ok {
		p99 = s[len(s)-1]
	}
	r.layer["pass.latency_p99_ms"] = float64(p99) / 1e6
	r.layer["pass.latency_max_ms"] = float64(s[len(s)-1]) / 1e6
	r.layer["pass.samples"] = float64(len(s))
}

// probe brackets a timed window: daemon CPU, generator CPU and the
// daemon's counters before and after, and its resident set throughout.
type probe struct {
	d     *daemon
	ctl   *httpConn
	cpu0  procCPU
	self0 time.Duration
	m0    daemonMetrics
	rss   *rssWatch
}

func startProbe(rc *runCtx, d *daemon, ctl *httpConn) (*probe, error) {
	p := &probe{d: d, ctl: ctl}
	var err error
	if p.m0, err = fetchMetrics(ctl); err != nil {
		return nil, err
	}
	// One writer period to a slice, so that on reload-under-load each
	// holds one whole append-and-reload cycle.
	if p.rss, err = startRSSWatch(d, rc.sc.appendEvery); err != nil {
		return nil, err
	}
	if p.cpu0, err = d.cpu(); err != nil {
		return nil, err
	}
	p.self0 = selfCPU()
	return p, nil
}

// finish records the CPU figures, the daemon's resident set over the
// window and the /metrics diff. childCPU and writerCPU are
// what the rest of the system under test spent during the window: the
// ingest children on pipeline-batch, the writer's thread (part of this
// process) on reload-under-load.
func (p *probe) finish(r *passResult, ops int, childCPU, writerCPU time.Duration) error {
	self := selfCPU() - p.self0 - writerCPU
	rss, err := p.rss.finish()
	if err != nil {
		return err
	}
	cpu1, err := p.d.cpu()
	if err != nil {
		return err
	}
	m1, err := fetchMetrics(p.ctl)
	if err != nil {
		return err
	}
	daemonCPU := cpu1.total() - p.cpu0.total()
	systemCPU := daemonCPU + childCPU + writerCPU
	r.e2e["cpu_us_per_op"] = float64(systemCPU) / 1e3 / float64(ops)
	r.e2e["daemon_rss_peak_mb"] = rss
	r.layer["supremmd.rss_load_mb"] = p.d.loadRSSMB
	// A window too short for a single 10 ms CPU tick (the self-tests')
	// leaves the shares at 0.
	r.layer["supremmd.cpu_user_share"] = share(cpu1.user-p.cpu0.user, daemonCPU)
	r.layer["loadgen.cpu_us_per_req"] = float64(self) / 1e3 / float64(ops)
	r.layer["loadgen.cpu_share"] = share(self, self+systemCPU)
	hits, misses := m1.CacheHits-p.m0.CacheHits, m1.CacheMisses-p.m0.CacheMisses
	r.layer["serve.cache_hit_ratio"] = share(hits, hits+misses)
	r.layer["serve.cache_entries"] = float64(m1.CacheEntries)
	r.layer["serve.shed"] = float64(m1.Shed - p.m0.Shed)
	r.layer["serve.queued"] = float64(m1.Admission.Queued - p.m0.Admission.Queued)
	r.layer["serve.in_flight_peak"] = float64(m1.Admission.InFlightPeak)
	r.layer["serve.deadline_timeouts"] = float64(m1.Deadline - p.m0.Deadline)
	r.layer["serve.reloads"] = float64(m1.Reloads - p.m0.Reloads)
	r.layer["serve.reload_errors"] = float64(m1.ReloadErrors - p.m0.ReloadErrors)
	r.layer["serve.responses_5xx"] = float64(m1.Status5xx - p.m0.Status5xx)
	r.layer["supremmd.start_ms"] = p.d.startMS
	return nil
}

// share is part/whole, 0 for an empty whole.
func share[T int64 | time.Duration](part, whole T) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// hitProbe measures what one cached request costs the daemon process:
// a closed loop on a single URL the cache already holds.
func hitProbe(d *daemon, target string, dur time.Duration, r *passResult) error {
	req := request{target: target}
	req.render()
	spec := loadSpec{addr: d.addr, requests: []request{req}, order: []int32{0}, conns: loadConns(), duration: dur}
	spec.total = 1
	if _, err := runLoad(spec); err != nil { // fill the cache
		return err
	}
	spec.total = 0
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	st, err := runLoad(spec)
	if err != nil {
		return err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	if st.failed > 0 {
		return fmt.Errorf("hit probe: %d of %d failed: %v", st.failed, st.attempted, st.firstErr)
	}
	r.layer["supremmd.cpu_us_per_hit"] = float64(cpu1.total()-cpu0.total()) / 1e3 / float64(st.attempted)
	return nil
}

// ---------------------------------------------------------------------
// pipeline-batch

type rawTree struct {
	name      string
	raw, acct string
	rawBytes  int64
	files     []string
	sizes     []int64 // of files, in walk order
	acctCount int
	oracle    *oracle // over the jobs.jsonl the first ingest of this tree wrote
}

// makeRawTree runs the built simulate binary.
func makeRawTree(rc *runCtx, name string, seed int64) (*rawTree, error) {
	dir := filepath.Join(rc.work, name)
	_, err := runChild(filepath.Join(rc.p.bin, "simulate"),
		"-cluster", clusterName, "-nodes", strconv.Itoa(rc.sc.rawNodes), "-days", strconv.Itoa(rc.sc.rawDays),
		"-seed", strconv.FormatInt(seed, 10), "-raw", "-out", dir)
	if err != nil {
		return nil, err
	}
	t := &rawTree{name: name, raw: filepath.Join(dir, "raw"), acct: filepath.Join(dir, "accounting.log")}
	err = filepath.WalkDir(t.raw, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		t.rawBytes += info.Size()
		t.files = append(t.files, path)
		t.sizes = append(t.sizes, info.Size())
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(t.files)
	t.acctCount, err = countAcct(t.acct)
	return t, err
}

// whole reports whether the tree kept its volume. simulate injects
// faults that cut raw files short, a tree can lose a quarter of its
// bytes to them, and what a repetition costs follows the bytes. A whole
// tree holds at least nine tenths of nodes x days files of the size its
// own full files have (the median of its nodes x days largest).
func (t *rawTree) whole(sc scale) bool {
	sizes := sortedCopy(t.sizes)
	n := min(len(sizes), sc.rawNodes*sc.rawDays)
	full := median(sizes[len(sizes)-n:])
	return float64(t.rawBytes) >= 0.9*float64(full)*float64(sc.rawNodes*sc.rawDays)
}

// rawTrees returns the invocation's two raw trees, made on first use:
// the first two whole trees among the seed's candidates. With the cut
// trees left in, ten seeds of one commit spread by the trees' sizes
// (30 to 44 MB) and not by anything the pipeline did.
func (rc *runCtx) rawTrees() ([2]*rawTree, error) {
	const candidates = 16 // per seed; about seven in ten are whole
	for k, found := 0, 0; rc.trees[1] == nil; k++ {
		if k == candidates {
			return rc.trees, fmt.Errorf("none of seed %d's %d raw trees kept nine tenths of its volume", rc.seed, candidates)
		}
		t, err := makeRawTree(rc, fmt.Sprintf("raw-%d", k), rc.seed*candidates+int64(k))
		if err != nil {
			return rc.trees, err
		}
		if !t.whole(rc.sc) {
			if err := os.RemoveAll(filepath.Dir(t.raw)); err != nil {
				return rc.trees, err
			}
			continue
		}
		rc.trees[found] = t
		found++
	}
	return rc.trees, nil
}

func (t *rawTree) ingestInto(rc *runCtx, out string) (childUsage, error) {
	return runChild(filepath.Join(rc.p.bin, "ingest"), "-raw", t.raw, "-acct", t.acct, "-out", out)
}

func readJobsJSONL(path string) ([]JobRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []JobRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r JobRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type pipelineEnv struct {
	trees [2]*rawTree
	out   string
	d     *daemon
}

// setupPipeline ingests the first tree and starts the daemon on the
// result. Making the raw trees is not part of set-up: it is the benchmark
// making its inputs, and it happens once.
func setupPipeline(rc *runCtx, trees [2]*rawTree) (*pipelineEnv, error) {
	e := &pipelineEnv{trees: trees, out: filepath.Join(rc.work, "pipeline-out")}
	if err := os.RemoveAll(e.out); err != nil {
		return nil, err
	}
	if _, err := e.trees[0].ingestInto(rc, e.out); err != nil {
		return nil, err
	}
	var err error
	e.d, err = startDaemon(rc.p, e.out, "-poll", "0")
	return e, err
}

func (e *pipelineEnv) close() { e.d.stop() }

// allRowsQuery is the first question asked of a new generation: one
// metric aggregated over every row.
var allRowsQuery = func() request {
	r := request{kind: kindAggregate, target: "/api/v1/aggregate?metric=cpu_idle", metric: "cpu_idle",
		filter: Filter{MinSamples: 1}}
	r.render()
	return r
}()

// rep is one ingest -> reload -> verified answer repetition.
func (e *pipelineEnv) rep(rc *runCtx, ctl *httpConn, t *rawTree) (lat time.Duration, u childUsage, err error) {
	start := time.Now()
	if u, err = t.ingestInto(rc, e.out); err != nil {
		return 0, u, err
	}
	res, err := ctl.send("POST", "/api/v1/reload")
	if err != nil || !res.ok() {
		return 0, u, fmt.Errorf("reload: status %d: %v %s", res.status, err, res.body)
	}
	res, err = ctl.roundTrip(allRowsQuery.raw)
	if err != nil || !res.ok() {
		return 0, u, fmt.Errorf("first query: status %d coverage %q: %v", res.status, res.coverage, err)
	}
	if t.oracle == nil {
		jobs, err := readJobsJSONL(filepath.Join(e.out, "jobs.jsonl"))
		if err != nil {
			return 0, u, err
		}
		t.oracle = newOracle(jobs)
	}
	if err := t.oracle.check(&allRowsQuery, res.body); err != nil {
		return 0, u, err
	}
	lat = time.Since(start)
	// Outside the timed part: the served row count must equal the
	// accounting records joined and the manifest's row sum.
	res, err = ctl.get("/api/v1/health")
	if err != nil || !res.ok() {
		return 0, u, fmt.Errorf("health: status %d: %v", res.status, err)
	}
	var health struct {
		Jobs int `json:"jobs"`
	}
	if err := json.Unmarshal(res.body, &health); err != nil {
		return 0, u, err
	}
	_, rows, _, err := manifestRows(e.out)
	if err != nil {
		return 0, u, err
	}
	if health.Jobs != t.acctCount || rows != t.acctCount || len(t.oracle.jobs) != t.acctCount {
		return 0, u, fmt.Errorf("%s: health.jobs=%d manifest rows=%d jobs.jsonl=%d, accounting has %d",
			t.name, health.Jobs, rows, len(t.oracle.jobs), t.acctCount)
	}
	return lat, u, nil
}

func runPipeline(rc *runCtx, e *pipelineEnv, r *passResult) error {
	ctl, err := dialHTTP(e.d.addr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	if rc.trace {
		if err := hitProbe(e.d, allRowsQuery.target, rc.sc.hitProbe, r); err != nil {
			return err
		}
	}
	pr, err := startProbe(rc, e.d, ctl)
	if err != nil {
		return err
	}
	defer pr.rss.halt()
	var lat []int64 // each successful repetition's latency
	var childCPU time.Duration
	attempted := 0
	start := time.Now()
	// Always B first: the daemon starts on A, so every repetition
	// replaces every shard. At least one of each.
	for i := 0; i < 2 || time.Since(start) < rc.duration(); i++ {
		l, u, err := e.rep(rc, ctl, e.trees[(i+1)%2])
		r.op(err)
		attempted++
		childCPU += u.cpu
		if err == nil {
			lat = append(lat, int64(l))
		}
	}
	elapsed := time.Since(start)
	if len(lat) == 0 {
		return errors.New("pipeline-batch: no repetition succeeded")
	}
	r.windowMetrics(lat, attempted, elapsed, latencyLimit[wlPipeline])
	r.layer["pass.data_to_queryable_ms"] = r.e2e["latency_p50_ms"] // the operation is the landing of data
	r.layer["loadgen.late_p99_ms"] = 0
	return pr.finish(r, attempted, childCPU, 0)
}

// ---------------------------------------------------------------------
// the three query workloads over the synthetic history

type historyEnv struct {
	workload string
	h        *history
	st       *Store // the writer's copy: base rows plus every landed append
	dir      string
	d        *daemon
	applied  int
	ctl      *httpConn
}

// setupHistory lands the data directory through the production writers
// and starts the daemon on it. Generating the records is not part of
// set-up: it is the benchmark making its inputs, and it happens once.
func setupHistory(rc *runCtx, workload string, h *history, st *Store, daemonFlags ...string) (*historyEnv, error) {
	e := &historyEnv{workload: workload, h: h, st: st, dir: filepath.Join(rc.work, "history")}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeHistoryDir(e.dir, e.st, e.h.series); err != nil {
		return nil, err
	}
	var err error
	if e.d, err = startDaemon(rc.p, e.dir, daemonFlags...); err != nil {
		return nil, err
	}
	e.ctl, err = dialHTTP(e.d.addr)
	if err != nil {
		e.d.stop()
	}
	return e, err
}

func (e *historyEnv) close() {
	if e.ctl != nil {
		e.ctl.Close()
	}
	e.d.stop()
}

// served returns the rows the daemon should be serving now.
func (e *historyEnv) served() []JobRecord {
	out := e.h.jobs[:len(e.h.jobs):len(e.h.jobs)]
	for _, batch := range e.h.appends[:e.applied] {
		out = append(out, batch...)
	}
	return out
}

// appendDay lands the next pre-generated day through the production
// write path, forces a reload and waits for the first answer that
// counts the new rows. It returns the time from the start of the batch
// to that verified answer, and the CPU the write path spent: the
// goroutine holds its thread for the duration, so the thread's CPU is
// the writer's and nothing else's (a write path that grew goroutines of
// its own would escape this count, not the wall time).
func (e *historyEnv) appendDay(days int) (lat, writeCPU time.Duration, err error) {
	if e.applied >= len(e.h.appends) {
		return 0, 0, errors.New("out of pre-generated appends")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPU()
	batch := e.h.appends[e.applied]
	for i := range batch {
		e.st.Add(batch[i])
	}
	if err := writeBinary(e.dir, e.st); err != nil {
		return 0, 0, err
	}
	if err := writeShardDir(e.dir, e.st); err != nil {
		return 0, 0, err
	}
	writeCPU = threadCPU() - cpu0
	res, err := e.ctl.send("POST", "/api/v1/reload")
	if err != nil || !res.ok() {
		return 0, writeCPU, fmt.Errorf("reload: status %d: %v %s", res.status, err, res.body)
	}
	// Only the new day's rows end at or after its midnight, so the
	// expected answer is a scan of the batch alone.
	q := request{kind: kindAggregate, metric: "cpu_idle",
		filter: Filter{MinSamples: 1, EndAfter: dayStart(days + e.applied)}}
	q.target = "/api/v1/aggregate?metric=cpu_idle&endafter=" + strconv.FormatInt(q.filter.EndAfter, 10)
	q.render()
	res, err = e.ctl.roundTrip(q.raw)
	if err != nil || !res.ok() {
		return 0, writeCPU, fmt.Errorf("first query after append: status %d: %v", res.status, err)
	}
	if err := newOracle(batch).check(&q, res.body); err != nil {
		return 0, writeCPU, fmt.Errorf("first query after append: %w", err)
	}
	e.applied++
	return time.Since(start), writeCPU, nil
}

// verify re-fetches a seeded sample of the list outside the timed window
// and compares every body with the oracle over the served rows.
func (e *historyEnv) verify(rc *runCtx, reqs []request, r *passResult) error {
	pick := rand.New(rand.NewSource(rc.seed ^ 0x766572)).Perm(len(reqs))
	if len(pick) > rc.sc.verifyURLs {
		pick = pick[:rc.sc.verifyURLs]
	}
	type fetched struct {
		req  *request
		body []byte
	}
	bodies := make([]fetched, 0, len(pick))
	for _, i := range pick {
		res, err := e.ctl.roundTrip(reqs[i].raw)
		if err != nil {
			return err
		}
		if !res.ok() {
			r.op(fmt.Errorf("verify %s: status %d coverage %q", reqs[i].target, res.status, res.coverage))
			continue
		}
		bodies = append(bodies, fetched{&reqs[i], append([]byte(nil), res.body...)})
	}
	// The oracle scans are the slow part; split them over the cores.
	served := e.served()
	workers := runtime.NumCPU()
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := newOracle(served)
			for i := w; i < len(bodies); i += workers {
				var err error
				if err = o.check(bodies[i].req, bodies[i].body); err != nil {
					err = fmt.Errorf("verify %s: %w", bodies[i].req.target, err)
				}
				errs[w] = append(errs[w], err)
			}
		}(w)
	}
	wg.Wait()
	for _, part := range errs {
		for _, err := range part {
			r.op(err)
		}
	}
	return nil
}

// warm touches every URL once so the cache holds the whole list.
func (e *historyEnv) warm(reqs []request, r *passResult) error {
	for i := range reqs {
		res, err := e.ctl.roundTrip(reqs[i].raw)
		if err != nil {
			return err
		}
		if !res.ok() {
			r.op(fmt.Errorf("warm %s: status %d coverage %q", reqs[i].target, res.status, res.coverage))
		}
	}
	return nil
}

// timedLoad runs one timed loop and fills the figures of its window.
func timedLoad(spec loadSpec, limit time.Duration, r *passResult) (*loadStats, error) {
	st, err := runLoad(spec)
	if err != nil {
		return nil, err
	}
	r.attempted += st.attempted
	r.failed += st.failed
	if st.firstErr != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, st.firstErr)
	}
	if len(st.latency) == 0 {
		return nil, fmt.Errorf("the timed loop completed nothing: %v", st.firstErr)
	}
	r.windowMetrics(st.latency, st.attempted, st.elapsed, limit)
	late, ok := percentile(sortedCopy(st.late), 0.99)
	if !ok {
		late = median(st.late)
	}
	r.layer["loadgen.late_p99_ms"] = float64(late) / 1e6
	return st, nil
}

// runQueries is query-hot and query-cold: a closed loop over the list,
// then the oracle check. Nothing lands while they run, so the
// data-to-queryable figure they report is the cold-start form: daemon
// exec -> first /readyz 200.
func runQueries(rc *runCtx, e *historyEnv, r *passResult, hot bool) error {
	var reqs []request
	var order []int32
	if hot {
		reqs = hotRequests(rc.seed, e.h)
		order = zipfOrder(rc.seed, 1<<16, len(reqs))
		if err := e.warm(reqs, r); err != nil {
			return err
		}
	} else {
		reqs = coldRequests(rc.seed, e.h, rc.sc.coldURLs)
		order = sequentialOrder(len(reqs))
	}
	if rc.trace {
		if err := hitProbe(e.d, hotRequests(rc.seed, e.h)[0].target, rc.sc.hitProbe, r); err != nil {
			return err
		}
	}
	pr, err := startProbe(rc, e.d, e.ctl)
	if err != nil {
		return err
	}
	defer pr.rss.halt()
	st, err := timedLoad(loadSpec{addr: e.d.addr, requests: reqs, order: order, conns: loadConns(),
		duration: rc.duration()}, latencyLimit[e.workload], r)
	if err != nil {
		return err
	}
	if err := pr.finish(r, st.attempted, 0, 0); err != nil {
		return err
	}
	r.layer["pass.data_to_queryable_ms"] = e.d.startMS
	return e.verify(rc, reqs, r)
}

// runReload is reload-under-load: the hot mix at a fixed rate while the
// writer lands a day and reloads on a fixed cadence.
func runReload(rc *runCtx, e *historyEnv, r *passResult) error {
	reqs := hotRequests(rc.seed, e.h)
	order := zipfOrder(rc.seed, 1<<16, len(reqs))
	if err := e.warm(reqs, r); err != nil {
		return err
	}
	if rc.trace {
		if err := hitProbe(e.d, reqs[0].target, rc.sc.hitProbe, r); err != nil {
			return err
		}
	}
	pr, err := startProbe(rc, e.d, e.ctl)
	if err != nil {
		return err
	}
	defer pr.rss.halt()
	// The writer's schedule is fixed too: append k starts at
	// appendEvery/2 + k*appendEvery, and the last must finish inside the
	// window, so none starts in its final half period (the first always
	// runs, however short the window).
	var fresh []int64
	var writerCPU time.Duration
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(rc.sc.appendEvery/2 + time.Duration(k)*rc.sc.appendEvery)
			if k > 0 && due.After(start.Add(rc.duration()-rc.sc.appendEvery/2)) {
				return
			}
			time.Sleep(time.Until(due))
			d, cpu, err := e.appendDay(rc.sc.days)
			writerCPU += cpu
			if err != nil {
				writerErr = err
				return
			}
			fresh = append(fresh, int64(d))
		}
	}()
	st, err := timedLoad(loadSpec{addr: e.d.addr, requests: reqs, order: order, conns: loadConns(),
		rate: rc.sc.openRate, duration: rc.duration()}, latencyLimit[wlReload], r)
	wg.Wait()
	if err != nil {
		return err
	}
	r.attempted += len(fresh)
	if writerErr != nil {
		r.op(writerErr)
	}
	if len(fresh) == 0 {
		return fmt.Errorf("reload-under-load: no append landed: %v", writerErr)
	}
	if err := pr.finish(r, st.attempted, 0, writerCPU); err != nil {
		return err
	}
	r.layer["pass.data_to_queryable_ms"] = float64(median(fresh)) / 1e6
	return e.verify(rc, reqs, r)
}

// ---------------------------------------------------------------------

// workloadEnv is a set-up workload: its fixtures on disk and a ready
// daemon over them.
type workloadEnv interface {
	run(rc *runCtx, r *passResult) error
	close()
}

func (e *pipelineEnv) run(rc *runCtx, r *passResult) error { return runPipeline(rc, e, r) }

func (e *historyEnv) run(rc *runCtx, r *passResult) error {
	if e.workload == wlReload {
		return runReload(rc, e, r)
	}
	return runQueries(rc, e, r, e.workload == wlHot)
}

// runWorkload sets the named workload up (several times, keeping the
// last), runs one pass and tears it down.
func runWorkload(rc *runCtx, name string) (*passResult, error) {
	var setup func() (workloadEnv, error)
	switch name {
	case wlPipeline:
		trees, err := rc.rawTrees()
		if err != nil {
			return nil, err
		}
		setup = func() (workloadEnv, error) { return setupPipeline(rc, trees) }
	case wlHot, wlCold, wlReload:
		h := genHistory(rc.seed, rc.sc.jobs, rc.sc.days, historyAppends)
		st := newStore(h.jobs)
		var flags []string
		if name == wlReload {
			flags = []string{"-poll", "0"} // reloads are forced by POST, on the writer's schedule
		}
		setup = func() (workloadEnv, error) { return setupHistory(rc, name, h, st, flags...) }
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newPassResult()
	var env workloadEnv
	for i := 0; i < rc.sc.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	defer env.close()
	r.e2e["setup_s"] = median(r.setupS)
	err := env.run(rc, r)
	r.layer["pass.failed"] = float64(r.failed)
	return r, err
}
