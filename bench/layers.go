package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// layers.go times each layer from outside, in process, through the
// adapter: the calls cmd/ingest and cmd/supremmd make, in the order they
// make them, on fixtures of the same seed and size as the workloads'.
// Timings are medians; calls that take over 100 ms are repeated three
// times, the rest until the per-measurement budget is spent.

// timeCalls runs fn repeatedly and returns the median duration.
func timeCalls(budget time.Duration, fn func() error) (time.Duration, error) {
	const minCalls, maxCalls = 3, 2000
	var samples []int64
	start := time.Now()
	for len(samples) < maxCalls && (len(samples) < minCalls || time.Since(start) < budget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, int64(time.Since(t0)))
	}
	return time.Duration(median(samples)), nil
}

// timeSteps runs n steps (step receives its index and returns how long
// its measured part took, so a step can keep its own set-up outside the
// measurement) and returns the median.
func timeSteps(n int, step func(i int) (time.Duration, error)) (time.Duration, error) {
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		d, err := step(i)
		if err != nil {
			return 0, err
		}
		samples = append(samples, int64(d))
	}
	return time.Duration(median(samples)), nil
}

// timeSeq is timeSteps for steps measured whole.
func timeSeq(n int, fn func(i int) error) (time.Duration, error) {
	return timeSteps(n, func(i int) (time.Duration, error) {
		t0 := time.Now()
		err := fn(i)
		return time.Since(t0), err
	})
}

// memDelta returns the heap objects and bytes fn allocated.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

const (
	slowReps     = 3 // repetitions of calls that take over 100 ms
	verySlowReps = 2 // and of the few that take most of a second
)

type layerSuite struct {
	rc  *runCtx
	out map[string]float64
}

func (s *layerSuite) set(name string, v float64) { s.out[name] = v }

// timed records the median of fn under the per-measurement budget.
func (s *layerSuite) timed(name string, unit func(time.Duration) float64, fn func() error) error {
	d, err := timeCalls(s.rc.sc.layerBudget, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s.set(name, unit(d))
	return nil
}

// runLayerSuite measures every in-process per-layer metric.
// It leaves its history directory and in-process server for the replay.
func runLayerSuite(rc *runCtx) (map[string]float64, *replayState, error) {
	s := &layerSuite{rc: rc, out: map[string]float64{}}
	if err := s.rawLayers(); err != nil {
		return nil, nil, err
	}
	state, err := s.historyLayers()
	return s.out, state, err
}

// rawLayers covers taccstats, sched, ingest and the ingest binary over
// raw tree A.
func (s *layerSuite) rawLayers() error {
	rc := s.rc
	trees, err := rc.rawTrees()
	if err != nil {
		return err
	}
	tree := trees[0]
	mb := float64(tree.rawBytes) / 1e6

	var records int
	parseAll := func() error {
		records = 0
		for _, f := range tree.files {
			n, err := parseRawFile(f)
			if err != nil {
				return err
			}
			records += n
		}
		return nil
	}
	mallocs, _, err := memDelta(parseAll)
	if err != nil {
		return err
	}
	parse, err := timeSeq(slowReps, func(int) error { return parseAll() })
	if err != nil {
		return err
	}
	s.set("taccstats.parse_s", parse.Seconds())
	s.set("taccstats.parse_mb_per_s", mb/parse.Seconds())
	s.set("taccstats.records", float64(records))
	s.set("taccstats.allocs_per_record", float64(mallocs)/float64(records))

	if err := s.timed("sched.read_acct_ms", ms, func() error {
		_, err := readAcct(tree.acct)
		return err
	}); err != nil {
		return err
	}

	acct, err := readAcct(tree.acct)
	if err != nil {
		return err
	}
	var res *RawResult
	ingestWith := func(workers int) func(int) error {
		return func(int) error {
			var err error
			res, err = ingestRaw(tree.raw, acct, workers)
			return err
		}
	}
	_, allocBytes, err := memDelta(func() error { return ingestWith(1)(0) })
	if err != nil {
		return err
	}
	w1, err := timeSeq(slowReps, ingestWith(1))
	if err != nil {
		return err
	}
	wN, err := timeSeq(slowReps, ingestWith(runtime.NumCPU()))
	if err != nil {
		return err
	}
	s.set("ingest.wall_w1_s", w1.Seconds())
	s.set("ingest.wall_wN_s", wN.Seconds())
	s.set("ingest.parallel_speedup", w1.Seconds()/wN.Seconds())
	s.set("ingest.reduce_self_s", w1.Seconds()-parse.Seconds())
	s.set("ingest.alloc_mb", float64(allocBytes)/1e6)
	s.set("ingest.jobs_out", float64(res.Store.Len()))
	s.set("ingest.records_dropped", float64(res.Quality.RecordsDropped))
	s.set("ingest.files_quarantined", float64(res.Quality.FilesQuarantined))

	out := filepath.Join(rc.work, "suite-ingest-out")
	var wall, cpu, rss []float64
	for i := 0; i < slowReps; i++ {
		u, err := tree.ingestInto(rc, out)
		if err != nil {
			return err
		}
		wall, cpu, rss = append(wall, u.wall.Seconds()), append(cpu, u.cpu.Seconds()), append(rss, u.rssMB)
	}
	s.set("ingestcmd.wall_s", median(wall))
	s.set("ingestcmd.cpu_s", median(cpu))
	s.set("ingestcmd.raw_mb_per_s", mb/median(wall))
	s.set("ingestcmd.rss_peak_mb", median(rss))
	outBytes, err := dirBytes(out)
	if err != nil {
		return err
	}
	s.set("store.out_bytes_per_raw_byte", float64(outBytes)/float64(tree.rawBytes))
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// dirIdentity maps each file of dir to an identity that changes when
// the file is replaced (every writer lands files by rename, so a
// rewritten file is a new inode even when its bytes are the same).
func dirIdentity(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = fmt.Sprintf("%d/%d/%v", info.Size(), info.ModTime().UnixNano(), fileID(info))
	}
	return out, nil
}

func changedFiles(before, after map[string]string) int {
	n := 0
	for name, id := range after {
		if before[name] != id {
			n++
		}
	}
	return n
}

// historySuite carries the fixtures the history layers share: the
// generated rows, the writer's store, the directory it lands in, the
// loaded shard set and the in-process server on that directory.
type historySuite struct {
	*layerSuite
	h          *history
	st         *Store
	dir        string
	shards     int   // in the base directory, before any append
	shardBytes int64 // their total size
	ss         *ShardSet
	srv        *Server
}

// historyLayers covers the store's write and read sides, its kernels,
// core, report and the serve layer over the synthetic history.
func (s *layerSuite) historyLayers() (*replayState, error) {
	h := genHistory(s.rc.seed, s.rc.sc.jobs, s.rc.sc.days, historyAppends)
	hs := &historySuite{layerSuite: s, h: h, st: newStore(h.jobs), dir: filepath.Join(s.rc.work, "suite-history")}
	if err := os.MkdirAll(hs.dir, 0o755); err != nil {
		return nil, err
	}
	for _, step := range []func() error{hs.writeSide, hs.readSide, hs.serveSide, hs.appends, hs.fullReload} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return &replayState{h: h, st: hs.st, dir: hs.dir, srv: hs.srv, applied: slowReps}, nil
}

// writeSide lands the directory in cmd/ingest's order, timing each writer.
func (s *historySuite) writeSide() error {
	d, err := timeSteps(verySlowReps, func(int) (time.Duration, error) {
		cp := newStore(s.h.jobs)
		t0 := time.Now()
		reorderByEndDay(cp)
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	s.set("store.reorder_ms", ms(d))
	if d, err = timeSeq(verySlowReps, func(int) error { return writeJSONL(s.dir, s.st) }); err != nil {
		return err
	}
	s.set("store.save_jsonl_ms", ms(d))
	if d, err = timeSeq(verySlowReps, func(int) error { return writeBinary(s.dir, s.st) }); err != nil {
		return err
	}
	s.set("store.save_binary_ms", ms(d))
	var encoded int
	if d, err = timeSeq(slowReps, func(int) error {
		b, err := encodeBinary(s.st)
		encoded = len(b)
		return err
	}); err != nil {
		return err
	}
	s.set("store.encode_mb_per_s", float64(encoded)/1e6/d.Seconds())
	if err := writeSeries(s.dir, s.h.series); err != nil {
		return err
	}
	if err := writeCleanQuality(s.dir, s.rc.sc.days); err != nil {
		return err
	}
	// One untimed write creates the files; the timed ones replace them,
	// as every batch after the first does.
	if err := writeShardDir(s.dir, s.st); err != nil {
		return err
	}
	if d, err = timeSeq(slowReps, func(int) error { return writeShardDir(s.dir, s.st) }); err != nil {
		return err
	}
	s.set("store.write_shards_full_ms", ms(d))
	var rows int
	if s.shards, rows, s.shardBytes, err = manifestRows(s.dir); err != nil {
		return err
	}
	s.set("store.shard_bytes_per_job", float64(s.shardBytes)/float64(rows))
	return nil
}

// readSide loads, indexes and scrubs the directory, then times the
// kernels on the loaded set.
func (s *historySuite) readSide() error {
	load := func(int) (err error) {
		s.ss, err = loadShardSet(s.dir, nil)
		return err
	}
	_, loadBytes, err := memDelta(func() error { return load(0) })
	if err != nil {
		return err
	}
	d, err := timeSeq(slowReps, load)
	if err != nil {
		return err
	}
	s.set("store.load_full_ms", ms(d))
	s.set("store.decode_mb_per_s", float64(s.shardBytes)/1e6/d.Seconds())
	s.set("store.load_alloc_mb", float64(loadBytes)/1e6)
	if d, err = timeSteps(slowReps, func(int) (time.Duration, error) {
		fresh, err := loadShardSet(s.dir, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		fresh.BuildIndex()
		return time.Since(t0), nil
	}); err != nil {
		return err
	}
	s.set("store.build_index_ms", ms(d))
	s.ss.BuildIndex()
	if err := s.timed("store.scrub_full_sweep_ms", ms, func() error {
		bad, err := scrubFullSweep(s.dir)
		if err == nil && bad != 0 {
			err = fmt.Errorf("scrub found %d damaged shards in a fresh directory", bad)
		}
		return err
	}); err != nil {
		return err
	}
	return s.kernels(s.ss, s.h)
}

// serveSide starts the in-process server and times it, core and report
// on its realm, the handlers, and the reloads that change nothing.
func (s *historySuite) serveSide() error {
	var err error
	if s.srv, err = newServer(s.dir); err != nil {
		return err
	}
	d, err := timeSeq(slowReps, func(int) error {
		_, err := newServer(s.dir)
		return err
	})
	if err != nil {
		return err
	}
	s.set("serve.new_ms", ms(d))
	if err := s.coreLayers(s.srv); err != nil {
		return err
	}
	if err := s.handlers(s.srv, s.h); err != nil {
		return err
	}
	if err := s.timed("serve.reload_noop_ms", ms, func() error {
		_, err := s.srv.Reload()
		return err
	}); err != nil {
		return err
	}
	return s.timed("serve.poll_noop_us", us, func() error {
		reloaded, err := s.srv.MaybeReload()
		if err == nil && reloaded {
			err = fmt.Errorf("poll reloaded an unchanged directory")
		}
		return err
	})
}

// appends lands three one-day batches, each followed by an incremental
// load of the set and an incremental reload of the server; both must
// adopt every shard but the new one.
func (s *historySuite) appends() error {
	var writeT, loadT, reloadT []int64
	var changed, reused int
	for k := 0; k < slowReps; k++ {
		for i := range s.h.appends[k] {
			s.st.Add(s.h.appends[k][i])
		}
		before, err := dirIdentity(s.dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := writeShardDir(s.dir, s.st); err != nil {
			return err
		}
		writeT = append(writeT, int64(time.Since(t0)))
		after, err := dirIdentity(s.dir)
		if err != nil {
			return err
		}
		changed = changedFiles(before, after)
		t0 = time.Now()
		next, err := loadShardSet(s.dir, s.ss)
		if err != nil {
			return err
		}
		loadT = append(loadT, int64(time.Since(t0)))
		if reused = shardsReused(next); reused != s.shards+k {
			return fmt.Errorf("append %d reused %d shards, want %d", k, reused, s.shards+k)
		}
		next.BuildIndex()
		s.ss = next
		t0 = time.Now()
		if _, err := s.srv.Reload(); err != nil {
			return err
		}
		reloadT = append(reloadT, int64(time.Since(t0)))
		if _, n, got := serverRealm(s.srv); got != n-1 {
			return fmt.Errorf("append %d: server reused %d of %d shards", k, got, n)
		}
	}
	s.set("store.write_shards_append_ms", float64(median(writeT))/1e6)
	s.set("store.files_written_per_append", float64(changed))
	s.set("store.load_incremental_ms", float64(median(loadT))/1e6)
	s.set("store.shards_reused", float64(reused))
	s.set("serve.reload_incremental_ms", float64(median(reloadT))/1e6)
	return nil
}

// fullReload times a reload in which every shard is replaced and none
// adopted. A second directory holds a different history of the same
// shape; the server's data directory is a link flipped between the two.
func (s *historySuite) fullReload() error {
	other := filepath.Join(s.rc.work, "suite-history-other")
	if err := os.MkdirAll(other, 0o755); err != nil {
		return err
	}
	if err := writeSeries(other, s.h.series); err != nil {
		return err
	}
	h2 := genHistory(s.rc.seed+1, s.rc.sc.jobs, s.rc.sc.days, 0)
	if err := writeShardDir(other, newStore(h2.jobs)); err != nil {
		return err
	}
	link := filepath.Join(s.rc.work, "suite-history-link")
	flip := func(target string) error {
		if err := os.RemoveAll(link); err != nil {
			return err
		}
		return os.Symlink(target, link)
	}
	if err := flip(s.dir); err != nil {
		return err
	}
	srv, err := newServer(link)
	if err != nil {
		return err
	}
	targets := []string{other, s.dir}
	d, err := timeSteps(slowReps, func(i int) (time.Duration, error) {
		if err := flip(targets[i%2]); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err := srv.Reload()
		took := time.Since(t0)
		if _, _, got := serverRealm(srv); err == nil && got != 0 {
			err = fmt.Errorf("full reload adopted %d shards", got)
		}
		return took, err
	})
	s.set("serve.reload_full_ms", ms(d))
	return err
}

func (s *layerSuite) kernels(r Reader, h *history) error {
	workers := aggWorkers()
	user := h.users[20]
	selective := Filter{Cluster: clusterName, User: user, MinSamples: 1}
	broad := Filter{Cluster: clusterName, MinSamples: 1}
	day := Filter{Cluster: clusterName, MinSamples: 1,
		EndAfter: dayStart(s.rc.sc.days / 2), EndBefore: dayStart(s.rc.sc.days/2 + 1)}
	agg := func(f Filter, workers int) func() error {
		return func() error {
			_, err := aggregate(r, "cpu_idle", f, workers)
			return err
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"store.agg_selective_us", agg(selective, workers)},
		{"store.agg_window1d_us", agg(day, workers)},
		{"store.agg_broad_us", agg(broad, workers)},
		{"store.agg_broad_w1_us", agg(broad, 1)},
		{"store.groupby_user_us", func() error { groupBy(r, "user", keyMetrics(), broad); return nil }},
		{"store.values_broad_us", func() error { r.Values("cpu_flops", broad); return nil }},
		{"store.select_selective_us", func() error { r.Select(selective); return nil }},
	}
	for _, st := range steps {
		if err := s.timed(st.name, us, st.fn); err != nil {
			return err
		}
	}
	s.set("store.agg_broad_speedup", s.out["store.agg_broad_w1_us"]/s.out["store.agg_broad_us"])
	const n = 20
	for name, fn := range map[string]func() error{
		"store.kernel_allocs_selective": agg(selective, workers),
		"store.kernel_allocs_broad":     agg(broad, workers),
	} {
		mallocs, _, err := memDelta(func() error {
			for i := 0; i < n; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.set(name, float64(mallocs)/n)
	}
	return nil
}

func (s *layerSuite) coreLayers(srv *Server) error {
	realm, _, _ := serverRealm(srv)
	steps := []struct {
		name string
		unit func(time.Duration) float64
		fn   func() error
	}{
		{"core.run_query_us", us, func() error {
			runQuery(realm, "user", keyMetrics(), Filter{MinSamples: 1}, 20)
			return nil
		}},
		{"core.top_user_profiles_us", us, func() error { realm.TopUserProfiles(5); return nil }},
		{"core.efficiency_report_us", us, func() error { realm.EfficiencyReport(); return nil }},
		{"core.characterize_us", us, func() error { realm.Characterize(); return nil }},
		{"core.trend_report_us", us, func() error { realm.TrendReport(); return nil }},
		{"report.suite_ms", ms, func() error { _, err := reportSuite(realm, "admin"); return err }},
	}
	for _, st := range steps {
		if err := s.timed(st.name, st.unit, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// directCall is the sibling of one request's ServeHTTP: the same
// question put straight to the kernel the handler would reach.
func directCall(realm *Realm, q *request) error {
	f := q.filter
	f.Cluster = clusterName
	switch q.kind {
	case kindAggregate:
		_, err := aggregate(realm.Store, q.metric, f, aggWorkers())
		return err
	case kindDistribution:
		realm.Store.Values(q.metric, f)
	case kindQuery:
		runQuery(realm, q.group, q.metrics, q.filter, q.limit)
	}
	return nil
}

// handlers times ServeHTTP on a hit and on never-repeated selective and
// broad URLs, each miss beside its direct kernel call; the difference
// is what the serve wrapper itself costs (decode, cache, marshal).
func (s *layerSuite) handlers(srv *Server, h *history) error {
	realm, _, _ := serverRealm(srv)
	hit := hotRequests(s.rc.seed, h)[0].target
	get := func(target string) error {
		if code, body := serveOnce(srv, target); code != 200 {
			return fmt.Errorf("%s answered %d: %s", target, code, body)
		}
		return nil
	}
	if err := get(hit); err != nil {
		return err
	}
	if err := s.timed("serve.handler_hit_us", us, func() error { return get(hit) }); err != nil {
		return err
	}
	const n = 200
	mallocs, _, err := memDelta(func() error {
		for i := 0; i < n; i++ {
			if err := get(hit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.set("serve.handler_hit_allocs", float64(mallocs)/n)

	cold := coldRequests(s.rc.seed^0x6c6179, h, 3000)
	byClass := map[string][]*request{}
	for i := range cold {
		byClass[cold[i].class] = append(byClass[cold[i].class], &cold[i])
	}
	for _, class := range []string{"selective", "broad"} {
		list, next := byClass[class], 0
		var handler, direct []int64
		start := time.Now()
		for next < len(list) && (next < 3 || time.Since(start) < 2*s.rc.sc.layerBudget) {
			q := list[next]
			next++
			t0 := time.Now()
			if err := get(q.target); err != nil {
				return err
			}
			t1 := time.Now()
			if err := directCall(realm, q); err != nil {
				return err
			}
			handler = append(handler, int64(t1.Sub(t0)))
			direct = append(direct, int64(time.Since(t1)))
		}
		hm, dm := time.Duration(median(handler)), time.Duration(median(direct))
		s.set("serve.handler_miss_"+class+"_us", us(hm))
		s.set("serve.wrapper_self_"+class+"_us", us(hm-dm))
	}
	return nil
}

// fileID is the inode number, 0 where the platform does not tell.
func fileID(info os.FileInfo) uint64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Ino
	}
	return 0
}
