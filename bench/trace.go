package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's side of each layer boundary
// (around the adapter calls), kept in memory, and written out when the
// replay ends. Spans inside the program are a later change.

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 on a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans on one goroutine. With on false every call runs
// its function and records nothing, which is the untraced side of
// trace.overhead_ratio.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	nextID uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// run executes fn inside a span named name under parent (0 starts a new
// trace) and passes fn the span's own id for its children.
func (t *tracer) run(parent uint64, name string, fn func(self uint64) error) error {
	if !t.on {
		return fn(0)
	}
	t.nextID++
	id := t.nextID
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].Trace // ids are 1-based indexes into spans
	}
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name})
	start := time.Since(t.epoch)
	err := fn(id)
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(time.Since(t.epoch))
	return err
}

// leaf is run for a span without children.
func (t *tracer) leaf(parent uint64, name string, fn func() error) error {
	return t.run(parent, name, func(uint64) error { return fn() })
}

// selfTimes returns, per span name, the total time spent in spans of
// that name outside their children, and the share of the named roots'
// time their children cover.
func selfTimes(spans []span, rootName string) (self map[string]int64, rootCoverage float64) {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	var rootTotal, rootCovered int64
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
		if s.Parent == 0 && s.Name == rootName {
			rootTotal += s.End - s.Start
			rootCovered += covered
		}
	}
	if rootTotal > 0 {
		rootCoverage = float64(rootCovered) / float64(rootTotal)
	}
	return self, rootCoverage
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Root         string           `json:"root"`
	RootCoverage float64          `json:"root_coverage"`
	SelfTimeNS   map[string]int64 `json:"self_time_ns"`
	Spans        []span           `json:"spans"`
}

// replayState is what the layer suite leaves behind for the replay: a
// history directory with an in-process server on it, so the replay need
// not build a second one.
type replayState struct {
	h       *history
	st      *Store
	dir     string
	srv     *Server
	applied int
}

// runTracedReplay replays the workload's operations in process, once
// traced and once not, writes the span file and returns the trace.*
// metrics.
func runTracedReplay(rc *runCtx, workload string, suiteState *replayState) (map[string]float64, error) {
	var replay func(t *tracer, half int) error
	root := "request"
	switch workload {
	case wlPipeline:
		root = "pipeline_rep"
		p, err := newPipelineReplay(rc)
		if err != nil {
			return nil, err
		}
		replay = func(t *tracer, _ int) error { return p.run(t) }
	case wlHot:
		reqs := hotRequests(rc.seed, suiteState.h)
		order := zipfOrder(rc.seed, rc.sc.replayHot, len(reqs))
		replay = func(t *tracer, _ int) error { return replayRequests(t, suiteState.srv, reqs, order) }
	case wlCold:
		// Each half is a fresh slice of never-seen URLs, so both sides of
		// the overhead ratio miss the cache alike.
		n := rc.sc.replayCold
		reqs := coldRequests(rc.seed^0x7472, suiteState.h, 2*n)
		replay = func(t *tracer, half int) error {
			return replayRequests(t, suiteState.srv, reqs[half*n:(half+1)*n], sequentialOrder(n))
		}
	case wlReload:
		root = "append"
		reqs := hotRequests(rc.seed, suiteState.h)
		order := zipfOrder(rc.seed, rc.sc.replayHot, len(reqs))
		replay = func(t *tracer, _ int) error {
			for k := 0; k < 3; k++ {
				if err := replayAppend(t, rc, suiteState); err != nil {
					return err
				}
			}
			return replayRequests(t, suiteState.srv, reqs, order)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	// Untraced first: whatever the first pass warms, it warms for the
	// traced one, so the ratio does not flatter tracing.
	var took [2]time.Duration
	var traced *tracer
	for half, on := range []bool{false, true} {
		t := newTracer(on)
		start := time.Now()
		if err := replay(t, half); err != nil {
			return nil, err
		}
		took[half] = time.Since(start)
		traced = t
	}
	self, coverage := selfTimes(traced.spans, root)
	if workload == wlPipeline && coverage < 0.95 {
		return nil, fmt.Errorf("children cover %.3f of the pipeline_rep roots, want >= 0.95", coverage)
	}
	err := writeJSONFile(filepath.Join(rc.p.out, "trace-"+workload+".json"), traceFile{
		Workload: workload, Seed: rc.seed, Root: root, RootCoverage: coverage, SelfTimeNS: self, Spans: traced.spans,
	})
	return map[string]float64{
		"trace.overhead_ratio": took[1].Seconds() / took[0].Seconds(),
		"trace.root_coverage":  coverage,
	}, err
}

// replayRequests serves each request through ServeHTTP and then puts
// the same question straight to the kernel, as sibling spans.
func replayRequests(t *tracer, srv *Server, reqs []request, order []int32) error {
	realm, _, _ := serverRealm(srv)
	for _, i := range order {
		q := &reqs[i]
		err := t.run(0, "request", func(self uint64) error {
			if err := t.leaf(self, "serve_http", func() error {
				if code, body := serveOnce(srv, q.target); code != 200 {
					return fmt.Errorf("%s answered %d: %s", q.target, code, body)
				}
				return nil
			}); err != nil {
				return err
			}
			return t.leaf(self, "kernel", func() error { return directCall(realm, q) })
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replayAppend lands the next day in the suite's directory and reloads
// the in-process server: write_shards_append -> reload -> first_query.
func replayAppend(t *tracer, rc *runCtx, s *replayState) error {
	if s.applied >= len(s.h.appends) {
		return fmt.Errorf("out of pre-generated appends")
	}
	batch := s.h.appends[s.applied]
	s.applied++
	for i := range batch {
		s.st.Add(batch[i])
	}
	return t.run(0, "append", func(self uint64) error {
		if err := t.leaf(self, "write_shards_append", func() error { return writeShardDir(s.dir, s.st) }); err != nil {
			return err
		}
		if err := t.leaf(self, "reload", func() error {
			_, err := s.srv.Reload()
			if _, n, reused := serverRealm(s.srv); err == nil && reused != n-1 {
				err = fmt.Errorf("append reload adopted %d of %d shards, want all but one", reused, n)
			}
			return err
		}); err != nil {
			return err
		}
		return t.leaf(self, "first_query", func() error {
			target := fmt.Sprintf("/api/v1/aggregate?metric=cpu_idle&endafter=%d", dayStart(rc.sc.days+s.applied-1))
			if code, body := serveOnce(s.srv, target); code != 200 {
				return fmt.Errorf("%s answered %d: %s", target, code, body)
			}
			return nil
		})
	})
}

// pipelineReplay is one in-process pipeline-batch repetition per raw
// tree: cmd/ingest's steps, then cmd/supremmd's forced reload and the
// first query.
type pipelineReplay struct {
	trees [2]*rawTree
	out   string
	srv   *Server
}

func newPipelineReplay(rc *runCtx) (*pipelineReplay, error) {
	p := &pipelineReplay{out: filepath.Join(rc.work, "replay-out")}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	var err error
	if p.trees, err = rc.rawTrees(); err != nil {
		return nil, err
	}
	// The server needs a directory to start on: tree A, untraced.
	if err := p.rep(newTracer(false), p.trees[0]); err != nil {
		return nil, err
	}
	p.srv, err = newServer(p.out)
	return p, err
}

func (p *pipelineReplay) run(t *tracer) error {
	for _, tree := range []*rawTree{p.trees[1], p.trees[0]} {
		if err := p.rep(t, tree); err != nil {
			return err
		}
	}
	return nil
}

func (p *pipelineReplay) rep(t *tracer, tree *rawTree) error {
	return t.run(0, "pipeline_rep", func(self uint64) error {
		var err error
		step := func(name string, fn func() error) {
			if err == nil {
				err = t.leaf(self, name, fn)
			}
		}
		var acct []AcctRecord
		var res *RawResult
		step("read_acct", func() (err error) { acct, err = readAcct(tree.acct); return err })
		step("ingest", func() (err error) { res, err = ingestRaw(tree.raw, acct, runtime.NumCPU()); return err })
		step("reorder", func() error { reorderByEndDay(res.Store); return nil })
		step("save_jsonl", func() error { return writeJSONL(p.out, res.Store) })
		step("save_binary", func() error { return writeBinary(p.out, res.Store) })
		step("save_series", func() error { return writeSeries(p.out, res.Series) })
		step("write_quality", func() error { return writeQuality(p.out, &res.Quality) })
		step("write_shards", func() error { return writeShardDir(p.out, res.Store) })
		if p.srv == nil {
			return err
		}
		step("reload", func() error {
			_, err := p.srv.Reload()
			if _, _, reused := serverRealm(p.srv); err == nil && reused != 0 {
				err = fmt.Errorf("A/B reload adopted %d shards, want 0", reused)
			}
			return err
		})
		step("first_query", func() error {
			code, body := serveOnce(p.srv, allRowsQuery.target)
			if code != 200 {
				return fmt.Errorf("first query answered %d: %s", code, body)
			}
			return nil
		})
		return err
	})
}
