package serve

import (
	"sync/atomic"
	"time"
)

// latencyBucketsMicros are the upper bounds (µs) of every latency
// histogram, expvar-style cumulative-free buckets plus an implicit
// overflow bucket.
var latencyBucketsMicros = [...]int64{
	100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1000000,
}

// histogram counts durations on latencyBucketsMicros' edges.
type histogram struct {
	counts  [len(latencyBucketsMicros) + 1]atomic.Int64 // last = overflow
	totalUS atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.totalUS.Add(us)
	for i, hi := range latencyBucketsMicros {
		if us <= hi {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBucketsMicros)].Add(1)
}

// routeStats is one route label's accounting: its request count, the
// latency of its whole requests, and that of each stage they reached.
type routeStats struct {
	requests atomic.Int64
	latency  histogram
	stages   [numStages]histogram
}

// Metrics is the daemon's instrumentation: per-endpoint request counts,
// status-class counters, a latency histogram, cache hit/miss counts and
// reload accounting. All counters are atomics so handlers never
// serialize on a metrics lock. Each side has one writer: fold here for
// requests, reloader.fold for the rest.
type Metrics struct {
	// routes has one entry per route label, made in New from the
	// endpoint table before the server is reachable; after that the map is
	// only read.
	routes map[string]*routeStats

	status2xx atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64

	reloads       atomic.Int64
	reloadErrors  atomic.Int64
	requestsTotal atomic.Int64
	// cacheHits and cacheMisses are daemon-wide and cumulative: they
	// outlive the per-generation caches they count.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// writeFailures counts responses whose body write failed (client
	// gone mid-response).
	writeFailures atomic.Int64

	// Overload accounting (DESIGN.md §13): shed counts load-shed
	// requests (queue full or draining), cancelled counts clients that
	// gave up while queued or mid-render, deadlineTimeouts counts
	// requests cancelled by the per-request deadline, panics counts
	// handler panics the request sequence absorbed.
	shed             atomic.Int64
	cancelled        atomic.Int64
	deadlineTimeouts atomic.Int64
	panics           atomic.Int64

	// Self-heal accounting (DESIGN.md §15): scrubSweeps counts full
	// verification passes over the shard set, shardsScrubbed individual
	// shard re-verifications, quarantines shards moved aside after
	// failing verification, repairs shards rebuilt byte-identically from
	// the monolithic backing.
	scrubSweeps    atomic.Int64
	shardsScrubbed atomic.Int64
	quarantines    atomic.Int64
	repairs        atomic.Int64
}

func newMetrics() *Metrics {
	return &Metrics{routes: make(map[string]*routeStats)}
}

// fold is the one place a finished request is counted.
func (m *Metrics) fold(r request) {
	m.requestsTotal.Add(1)
	rt := m.routes[r.route]
	rt.requests.Add(1)
	switch {
	case r.status >= 500:
		m.status5xx.Add(1)
	case r.status >= 400:
		m.status4xx.Add(1)
	default:
		m.status2xx.Add(1)
	}
	switch r.verdict {
	case admitShed:
		m.shed.Add(1)
	case admitCancelled:
		m.cancelled.Add(1)
	}
	switch r.ended {
	case endedCancelled:
		m.cancelled.Add(1)
	case endedDeadline:
		m.deadlineTimeouts.Add(1)
	case endedPanic:
		m.panics.Add(1)
	}
	switch r.cache {
	case cacheHit:
		m.cacheHits.Add(1)
	case cacheMiss:
		m.cacheMisses.Add(1)
	}
	if r.writeFailed {
		m.writeFailures.Add(1)
	}
	if r.elapsed <= 0 {
		return // no clock injected (deterministic tests)
	}
	rt.latency.observe(r.elapsed)
	for st := range numStages {
		if r.timed&(1<<st) != 0 {
			rt.stages[st].observe(r.stages[st])
		}
	}
}

// metricsDTO is the /metrics response body. The partitions_* keys are
// the served generation's store.PartitionUse: how its kernel calls got
// each day shard's share of their answers.
type metricsDTO struct {
	StoreGeneration uint64           `json:"store_generation"`
	Jobs            int              `json:"jobs"`
	RequestsTotal   int64            `json:"requests_total"`
	Requests        map[string]int64 `json:"requests_by_endpoint"`
	Status2xx       int64            `json:"responses_2xx"`
	Status4xx       int64            `json:"responses_4xx"`
	Status5xx       int64            `json:"responses_5xx"`
	CacheHits       int64            `json:"cache_hits"`
	CacheMisses     int64            `json:"cache_misses"`
	CacheHitRatio   F                `json:"cache_hit_ratio"`
	CacheEntries    int              `json:"cache_entries"`
	PartsRemembered int64            `json:"partitions_remembered"`
	PartsWalked     int64            `json:"partitions_walked"`
	PartsPruned     int64            `json:"partitions_pruned"`
	Reloads         int64            `json:"reloads"`
	ReloadErrors    int64            `json:"reload_errors"`
	WriteFailures   int64            `json:"write_failures"`
	Shed            int64            `json:"shed"`
	Cancelled       int64            `json:"cancelled"`
	DeadlineTimeout int64            `json:"deadline_timeouts"`
	PanicsRecovered int64            `json:"panics_recovered"`
	ScrubSweeps     int64            `json:"scrub_sweeps"`
	ShardsScrubbed  int64            `json:"shards_scrubbed"`
	Quarantines     int64            `json:"quarantines"`
	Repairs         int64            `json:"repairs"`
	CoverageRatio   F                `json:"coverage_ratio"`
	Degraded        bool             `json:"degraded"`
	Admission       admissionDTO     `json:"admission"`
	Breaker         breakerDTO       `json:"breaker"`
	Latency         latencyDTO       `json:"latency"`
	// LatencyByRoute is, per route with a timed request, the latency of
	// its whole requests and of each stage they reached; Latency is the
	// sum of its whole-request histograms.
	LatencyByRoute map[string]routeLatencyDTO `json:"latency_by_endpoint"`
}

type routeLatencyDTO struct {
	Request latencyDTO            `json:"request"`
	Stages  map[string]latencyDTO `json:"stages"`
}

type latencyDTO struct {
	Observed    int64           `json:"observed"`
	TotalMicros int64           `json:"total_us"`
	MeanMicros  F               `json:"mean_us"`
	Buckets     []latencyBucket `json:"buckets"`
}

type latencyBucket struct {
	LeMicros int64 `json:"le_us"` // 0 on the overflow bucket
	Count    int64 `json:"count"`
}

// snapshotDTO renders the current counter values beside the served
// snapshot's facts (its cache's entry count among them), the admission
// valve's gauges and the breaker's state.
func (m *Metrics) snapshotDTO(snap *Snapshot, adm *admission, brk *breaker) metricsDTO {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	parts := snap.shards.PartitionUse()
	dto := metricsDTO{
		StoreGeneration: snap.Gen,
		Jobs:            snap.Realm.Store.Len(),
		RequestsTotal:   m.requestsTotal.Load(),
		Requests:        make(map[string]int64),
		Status2xx:       m.status2xx.Load(),
		Status4xx:       m.status4xx.Load(),
		Status5xx:       m.status5xx.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEntries:    snap.cache.Len(),
		PartsRemembered: parts.Remembered,
		PartsWalked:     parts.Walked,
		PartsPruned:     parts.Pruned,
		Reloads:         m.reloads.Load(),
		ReloadErrors:    m.reloadErrors.Load(),
		WriteFailures:   m.writeFailures.Load(),
		Shed:            m.shed.Load(),
		Cancelled:       m.cancelled.Load(),
		DeadlineTimeout: m.deadlineTimeouts.Load(),
		PanicsRecovered: m.panics.Load(),
		ScrubSweeps:     m.scrubSweeps.Load(),
		ShardsScrubbed:  m.shardsScrubbed.Load(),
		Quarantines:     m.quarantines.Load(),
		Repairs:         m.repairs.Load(),
		CoverageRatio:   F(snap.Coverage.Ratio),
		Degraded:        snap.Coverage.Degraded,
		Admission:       adm.dto(),
		Breaker:         brk.dto(),
	}
	if total := hits + misses; total > 0 {
		dto.CacheHitRatio = F(float64(hits) / float64(total))
	}
	var sum histogram
	for p, rt := range m.routes {
		if n := rt.requests.Load(); n > 0 { // a route nobody has asked for is not listed
			dto.Requests[p] = n
		}
		req := rt.latency.dto()
		if req.Observed == 0 {
			continue
		}
		rl := routeLatencyDTO{Request: req, Stages: make(map[string]latencyDTO)}
		for st := range numStages {
			if d := rt.stages[st].dto(); d.Observed > 0 {
				rl.Stages[stageNames[st]] = d
			}
		}
		if dto.LatencyByRoute == nil {
			dto.LatencyByRoute = make(map[string]routeLatencyDTO)
		}
		dto.LatencyByRoute[p] = rl
		sum.totalUS.Add(rt.latency.totalUS.Load())
		for i := range sum.counts {
			sum.counts[i].Add(rt.latency.counts[i].Load())
		}
	}
	dto.Latency = sum.dto()
	return dto
}

// dto renders the histogram's current counts.
func (h *histogram) dto() latencyDTO {
	d := latencyDTO{TotalMicros: h.totalUS.Load()}
	for i := range h.counts {
		b := latencyBucket{Count: h.counts[i].Load()}
		if i < len(latencyBucketsMicros) {
			b.LeMicros = latencyBucketsMicros[i]
		}
		d.Buckets = append(d.Buckets, b)
		d.Observed += b.Count
	}
	if d.Observed > 0 {
		d.MeanMicros = F(float64(d.TotalMicros) / float64(d.Observed))
	}
	return d
}
