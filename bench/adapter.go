package main

// adapter.go is the only file of the benchmark that imports product
// packages. Everything else names the aliases and thin functions
// declared here, so a later change that folds duplicate entry points
// together (one IngestRaw, one load path) is absorbed in this file and
// the workloads, the oracle and the metric names do not notice.
//
// In-process timing may call only what cmd/ingest and cmd/supremmd
// themselves call, plus taccstats.ParseStream, the store.Reader
// interface and core.Realm methods.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"supremm/internal/core"
	"supremm/internal/ingest"
	"supremm/internal/report"
	"supremm/internal/sched"
	"supremm/internal/serve"
	"supremm/internal/store"
	"supremm/internal/taccstats"
)

type (
	JobRecord    = store.JobRecord
	SystemSample = store.SystemSample
	Filter       = store.Filter
	Metric       = store.Metric
	Store        = store.Store
	ShardSet     = store.ShardSet
	Reader       = store.Reader
	Realm        = core.Realm
	Server       = serve.Server
	RawResult    = ingest.RawResult
	AcctRecord   = sched.AcctRecord
)

const (
	manifestFile  = store.ManifestFile
	secondsPerDay = store.SecondsPerDay
)

func allMetrics() []Metric { return store.AllMetrics() }
func keyMetrics() []Metric { return store.KeyMetrics() }

// groupKeys maps the HTTP group names the workloads use to store keys.
var groupKeys = map[string]store.GroupKey{
	"user": store.ByUser, "app": store.ByApp, "science": store.ByScience,
}

func newStore(recs []JobRecord) *Store {
	st := store.New()
	for i := range recs {
		st.Add(recs[i])
	}
	return st
}

// ---- taccstats / sched / ingest ----

// parseRawFile streams one raw file through the parser on the calling
// goroutine and returns how many records it delivered.
func parseRawFile(path string) (records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, err = taccstats.ParseStream(f, func(*taccstats.Record) error {
		records++
		return nil
	})
	return records, err
}

func readAcct(path string) ([]AcctRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sched.ReadAcct(f)
}

// countAcct returns the number of accounting records in the log.
func countAcct(path string) (int, error) {
	acct, err := readAcct(path)
	return len(acct), err
}

// ingestRaw runs the reduction with cmd/ingest's own options.
func ingestRaw(rawDir string, acct []AcctRecord, workers int) (*RawResult, error) {
	return ingest.IngestRawOpts(rawDir, acct, ingest.Options{
		Policy:         ingest.Lenient,
		MaxIntervalSec: ingest.DefaultMaxIntervalSec,
		RetryMax:       2,
		Workers:        workers,
		Backoff: func(attempt int) {
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		},
	})
}

// ---- store, write side (cmd/ingest's output sequence, step by step) ----

func reorderByEndDay(st *Store) { st.ReorderByEndDay() }

func writeJSONL(dir string, st *Store) error {
	return store.AtomicWriteFile(dir, "jobs.jsonl", func(f *os.File) error { return st.Save(f) })
}

func writeBinary(dir string, st *Store) error {
	return store.AtomicWriteFile(dir, "jobs.supremm", func(f *os.File) error { return st.SaveBinary(f) })
}

func writeSeries(dir string, series []SystemSample) error {
	return store.AtomicWriteFile(dir, "series.jsonl", func(f *os.File) error { return store.SaveSeries(f, series) })
}

func writeQuality(dir string, q *ingest.DataQuality) error {
	return store.AtomicWriteFile(dir, "quality.json", func(f *os.File) error { return ingest.WriteQuality(f, q) })
}

// writeCleanQuality writes the report of an ingest that found no fault.
func writeCleanQuality(dir string, filesScanned int) error {
	return writeQuality(dir, &ingest.DataQuality{FilesScanned: filesScanned})
}

func writeShardDir(dir string, st *Store) error { return store.WriteShardDir(dir, st) }

// encodeBinary returns the monolithic snapshot bytes (SaveBinary into
// memory), for the encode-throughput figure.
func encodeBinary(st *Store) ([]byte, error) {
	var buf bytes.Buffer
	err := st.SaveBinary(&buf)
	return buf.Bytes(), err
}

// ---- store, read side ----

func loadShardSet(dir string, prev *ShardSet) (*ShardSet, error) {
	return store.LoadShardSet(dir, prev)
}

func shardsReused(ss *ShardSet) int { return ss.LoadStats().Reused }

// manifestRows decodes the directory's manifest and returns its shard
// count, row sum and shard byte sum.
func manifestRows(dir string) (shards, rows int, bytes int64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return 0, 0, 0, err
	}
	entries, err := store.DecodeManifest(data)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		rows += e.Rows
		bytes += e.Size
	}
	return len(entries), rows, bytes, nil
}

// scrubFullSweep re-verifies every shard of dir against its manifest.
func scrubFullSweep(dir string) (findings int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return 0, err
	}
	entries, err := store.DecodeManifest(data)
	if err != nil {
		return 0, err
	}
	bad, _ := store.NewScrubber(dir, entries, nil).Tick(-1)
	return len(bad), nil
}

// ---- store kernels through store.Reader ----

func aggregate(r Reader, m Metric, f Filter, workers int) (n int, err error) {
	agg, err := r.AggregateParallelCtx(context.Background(), m, f, workers)
	return agg.N, err
}

func groupBy(r Reader, group string, metrics []Metric, f Filter) int {
	return len(r.GroupBy(groupKeys[group], metrics, f))
}

// ---- core / report ----

func runQuery(r *Realm, group string, metrics []Metric, f Filter, limit int) int {
	res := r.RunQuery(core.Query{GroupBy: groupKeys[group], Metrics: metrics, Filter: f, Limit: limit})
	return len(res.Groups)
}

func reportSuite(r *Realm, who string) (int, error) {
	var buf bytes.Buffer
	err := report.SuiteWithQuality(&buf, report.Stakeholder(who), nil, r)
	return buf.Len(), err
}

// ---- serve, in process ----

// newServer builds the server with the Config cmd/supremmd builds from
// its default flags.
func newServer(dir string) (*Server, error) {
	return serve.New(serve.Config{
		DataDir:  dir,
		RetryMax: 2,
		Backoff: func(attempt int) {
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		},
		Now:              time.Now,
		RequestTimeout:   10 * time.Second,
		RetryAfterSec:    1,
		BreakerThreshold: 3, BreakerBackoffPolls: 2,
		SelfHeal: true,
	})
}

// serverRealm returns the realm of the server's current generation and
// how many shards its last load adopted from the generation before.
func serverRealm(s *Server) (realm *Realm, shards, reused int) {
	snap := s.Snapshot()
	return snap.Realm, snap.Shards, snap.ShardsReused
}

// serveOnce runs one GET through ServeHTTP with a recorder and returns
// the status and body.
func serveOnce(s *Server, target string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func aggWorkers() int { return runtime.GOMAXPROCS(0) }
