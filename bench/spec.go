package main

import (
	"encoding/json"
	"time"
)

// spec.go is the benchmark's contract in one place: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json is this file rendered (`bench spec`), and a
// self-test holds the two together.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlPipeline = "pipeline-batch"
	wlHot      = "query-hot"
	wlCold     = "query-cold"
	wlReload   = "reload-under-load"
)

var workloads = []workloadSpec{
	{wlPipeline, "live supremmd; alternately ingest raw tree A/B, reload, query: taccstats parse and ingest reduce do ~90% of the work, store kernels and cache almost none"},
	{wlHot, "closed loop, Zipf over 64 URLs that all fit the 1024-entry cache: the serve wrapper and the net/http stack do all the work, store and core kernels none"},
	{wlCold, "closed loop over 16000 never-repeated URLs (16x the cache): store kernels, core and JSON marshal dominate and the cache only costs"},
	{wlReload, "open loop 2000 req/s of the hot mix while a writer appends a day and reloads every 2 s: shard rewrite, incremental load and cache purge compete with reads"},
}

// latencyLimit is each workload's fixed latency limit: within_limit_ratio
// is the share of its operations answered inside it. The limits sit
// about ten times above the seed commit's median latency (twice, on
// pipeline-batch, whose repetitions vary little).
var latencyLimit = map[string]time.Duration{
	wlPipeline: 300 * time.Millisecond,
	wlHot:      time.Millisecond,
	wlCold:     100 * time.Millisecond,
	wlReload:   25 * time.Millisecond,
}

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 16

// Every workload reports every end-to-end metric (the driver's contract)
// and none may ever be 0, so each is defined over "the workload's
// operation": one HTTP request on the three query workloads, one ingest
// -> reload -> verified query repetition on pipeline-batch. The figures
// are plain ones over the whole timed window: the median latency, the
// operations answered correctly per second, total CPU over operations.
//
// The bounds are what this sandbox can resolve, not what one would wish:
// the host drifts between a fast and a slow state for minutes at a time
// (the same cached request costs the daemon 37 or 50 us of CPU, a
// pipeline repetition 115 or 160 ms), so ten runs of one commit spread
// by 2 to 7 % in a quiet spell and by up to a fifth across a change of
// state, on every timing, however long each run is. The driver refuses
// a benchmark whose own spread exceeds a bound, which leaves the maximum
// it allows. The ratio is steadier and carries a fifth.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"within_limit_ratio", "ratio", "higher", 0.20},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"daemon_rss_peak_mb", "MB", "lower", 0.25},
}

var perLayer = []metricSpec{
	// taccstats: ParseStream over every file of raw tree A, one goroutine.
	{"taccstats.parse_s", "s", "lower", 0},
	{"taccstats.parse_mb_per_s", "MB/s", "higher", 0},
	{"taccstats.records", "count", "higher", 0},
	{"taccstats.allocs_per_record", "count", "lower", 0},
	{"sched.read_acct_ms", "ms", "lower", 0},
	// ingest: IngestRawOpts with cmd/ingest's options.
	{"ingest.wall_w1_s", "s", "lower", 0},
	{"ingest.wall_wN_s", "s", "lower", 0},
	{"ingest.parallel_speedup", "x", "higher", 0},
	{"ingest.reduce_self_s", "s", "lower", 0},
	{"ingest.alloc_mb", "MB", "lower", 0},
	{"ingest.jobs_out", "count", "higher", 0},
	{"ingest.records_dropped", "count", "lower", 0},
	{"ingest.files_quarantined", "count", "lower", 0},
	// the ingest binary as a child process over raw tree A.
	{"ingestcmd.wall_s", "s", "lower", 0},
	{"ingestcmd.cpu_s", "s", "lower", 0},
	{"ingestcmd.raw_mb_per_s", "MB/s", "higher", 0},
	{"ingestcmd.rss_peak_mb", "MB", "lower", 0},
	// store, write side.
	{"store.reorder_ms", "ms", "lower", 0},
	{"store.save_jsonl_ms", "ms", "lower", 0},
	{"store.save_binary_ms", "ms", "lower", 0},
	{"store.encode_mb_per_s", "MB/s", "higher", 0},
	{"store.write_shards_full_ms", "ms", "lower", 0},
	{"store.write_shards_append_ms", "ms", "lower", 0},
	{"store.files_written_per_append", "count", "lower", 0},
	{"store.out_bytes_per_raw_byte", "ratio", "lower", 0},
	{"store.shard_bytes_per_job", "B", "lower", 0},
	// store, read side.
	{"store.load_full_ms", "ms", "lower", 0},
	{"store.load_incremental_ms", "ms", "lower", 0},
	{"store.shards_reused", "count", "higher", 0},
	{"store.decode_mb_per_s", "MB/s", "higher", 0},
	{"store.load_alloc_mb", "MB", "lower", 0},
	{"store.build_index_ms", "ms", "lower", 0},
	{"store.scrub_full_sweep_ms", "ms", "lower", 0},
	// store kernels through store.Reader on the loaded history.
	{"store.agg_selective_us", "us", "lower", 0},
	{"store.agg_window1d_us", "us", "lower", 0},
	{"store.agg_broad_us", "us", "lower", 0},
	{"store.agg_broad_w1_us", "us", "lower", 0},
	{"store.agg_broad_speedup", "x", "higher", 0},
	{"store.groupby_user_us", "us", "lower", 0},
	{"store.values_broad_us", "us", "lower", 0},
	{"store.select_selective_us", "us", "lower", 0},
	{"store.kernel_allocs_selective", "count", "lower", 0},
	{"store.kernel_allocs_broad", "count", "lower", 0},
	// core and report over the loaded realm.
	{"core.run_query_us", "us", "lower", 0},
	{"core.top_user_profiles_us", "us", "lower", 0},
	{"core.efficiency_report_us", "us", "lower", 0},
	{"core.characterize_us", "us", "lower", 0},
	{"core.trend_report_us", "us", "lower", 0},
	{"report.suite_ms", "ms", "lower", 0},
	// serve in process: cmd/supremmd's Config, ServeHTTP + recorder.
	{"serve.new_ms", "ms", "lower", 0},
	{"serve.reload_full_ms", "ms", "lower", 0},
	{"serve.reload_incremental_ms", "ms", "lower", 0},
	{"serve.reload_noop_ms", "ms", "lower", 0},
	{"serve.poll_noop_us", "us", "lower", 0},
	{"serve.handler_hit_us", "us", "lower", 0},
	{"serve.handler_hit_allocs", "count", "lower", 0},
	{"serve.handler_miss_selective_us", "us", "lower", 0},
	{"serve.handler_miss_broad_us", "us", "lower", 0},
	{"serve.wrapper_self_selective_us", "us", "lower", 0},
	{"serve.wrapper_self_broad_us", "us", "lower", 0},
	// serve, from the daemon's /metrics across the workload's own pass.
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_entries", "count", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.queued", "count", "lower", 0},
	{"serve.in_flight_peak", "count", "lower", 0},
	{"serve.deadline_timeouts", "count", "lower", 0},
	{"serve.reloads", "count", "higher", 0},
	{"serve.reload_errors", "count", "lower", 0},
	{"serve.responses_5xx", "count", "lower", 0},
	// the supremmd process in the workload's own pass.
	{"supremmd.start_ms", "ms", "lower", 0},
	{"supremmd.rss_load_mb", "MB", "lower", 0},
	{"supremmd.cpu_us_per_hit", "us", "lower", 0},
	{"supremmd.http_stack_us", "us", "lower", 0},
	{"supremmd.cpu_user_share", "ratio", "higher", 0},
	// what the workload's own pass measured and no bound gates.
	{"pass.data_to_queryable_ms", "ms", "lower", 0},
	{"pass.latency_p90_ms", "ms", "lower", 0},
	{"pass.latency_p99_ms", "ms", "lower", 0},
	{"pass.latency_max_ms", "ms", "lower", 0},
	{"pass.samples", "count", "higher", 0},
	{"pass.failed", "count", "lower", 0},
	// the generator and the machine.
	{"loadgen.cpu_us_per_req", "us", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"machine.spin_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.root_coverage", "ratio", "higher", 0},
	{"bench.build_s", "s", "lower", 0},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

// perLayerSpec is metricSpec without the bound key.
type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func renderBenchmarkFile() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "supremm/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerSpec{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	return append(out, '\n'), err
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
