package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"supremm/internal/store"
)

// benchStore builds a 100k-job store with 500 distinct users, so a
// user filter is selective (~0.2% of rows): the regime the posting
// lists serve.
func benchStore(n int) *store.Store {
	st := store.New()
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm"}
	for i := 0; i < n; i++ {
		r := store.JobRecord{
			JobID:   int64(100 + i),
			Cluster: "ranger",
			User:    fmt.Sprintf("u%03d", i%500),
			App:     apps[i%len(apps)],
			Science: []string{"Chemistry", "Physics", "Biology"}[i%3],
			Nodes:   1 + i%64,
			Submit:  int64(100 * i),
			Start:   int64(100*i + 60),
			End:     int64(100*i + 60 + 1800*(1+i%8)),
			Status:  "completed",
			Samples: 1 + i%5,
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 29)
		r.FlopsGF = 0.7 * float64(i%17)
		st.Add(r)
	}
	return st
}

const benchJobs = 100_000

// selectiveFilter hits one user out of 500.
var selectiveFilter = store.Filter{Cluster: "ranger", User: "u042", MinSamples: 1}

// BenchmarkServeAggregate measures the aggregation path at both layers:
// the store (a selective and a broad filter over the one-shard set) and
// the HTTP surface (cache-off vs cache-on). bench-serve greps these
// names; the posting-list floor itself is store's TestIndexedSpeedupFloor.
func BenchmarkServeAggregate(b *testing.B) {
	st := benchStore(benchJobs)
	ss := st.AsSet()
	workers := runtime.GOMAXPROCS(0)

	b.Run("store-selective", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = ss.AggregateParallelCtx(context.Background(), store.MetricFlops, selectiveFilter, workers)
		}
	})

	b.Run("store-broad", func(b *testing.B) {
		// Unselective filter: every row matches, so the posting lists
		// cannot narrow anything.
		broad := store.Filter{Cluster: "ranger", MinSamples: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = ss.AggregateParallelCtx(context.Background(), store.MetricFlops, broad, workers)
		}
	})

	dir := b.TempDir()
	writeDataDir(b, dir, st, fixtureSeries(8), nil)
	const target = "/api/v1/aggregate?metric=cpu_flops&user=u042"

	serveOnce := func(b *testing.B, srv *Server) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}

	b.Run("http-cold", func(b *testing.B) {
		// Cache disabled: every request re-runs the aggregate
		// and re-marshals the body.
		srv, err := New(Config{DataDir: dir, CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, srv)
		}
	})

	b.Run("http-cached", func(b *testing.B) {
		srv, err := New(Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		serveOnce(b, srv) // warm the entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, srv)
		}
	})
}
