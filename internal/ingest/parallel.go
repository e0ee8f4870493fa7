package ingest

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"supremm/internal/sched"
)

// hostResult is everything one host's raw files contribute: attributed
// intervals, the host's slice of every system bucket, and its data-
// quality accounting.
type hostResult struct {
	host         string
	intervals    []attributedInterval
	buckets      []timedBucket
	unattributed int
	quality      DataQuality
	err          error
}

// timedBucket is one sampling instant's partial sums for a single host,
// kept in a time-sorted slice: sample times within a host's sorted day
// files are (almost always) non-decreasing, so appending with a
// last-element fast path replaces a per-interval map lookup and the
// per-bucket heap allocation the map forced.
type timedBucket struct {
	t int64
	b sysBucket
}

// bucketAt returns the bucket for sample time t, keeping the slice
// sorted. The common case is t == last (fold into it) or t > last
// (append); a clock step that rewinds time falls back to a binary
// search + insert, so the result is identical to the map it replaced.
func bucketAt(buckets []timedBucket, t int64) ([]timedBucket, *sysBucket) {
	if n := len(buckets); n > 0 {
		if last := &buckets[n-1]; last.t == t {
			return buckets, &last.b
		} else if t > last.t {
			buckets = append(buckets, timedBucket{t: t})
			return buckets, &buckets[len(buckets)-1].b
		}
		i := sort.Search(n, func(i int) bool { return buckets[i].t >= t })
		if i < n && buckets[i].t == t {
			return buckets, &buckets[i].b
		}
		buckets = append(buckets, timedBucket{})
		copy(buckets[i+1:], buckets[i:])
		buckets[i] = timedBucket{t: t}
		return buckets, &buckets[i].b
	}
	buckets = append(buckets, timedBucket{t: t})
	return buckets, &buckets[0].b
}

type attributedInterval struct {
	jobID int64
	iv    Interval
}

// IngestRawOpts parses every raw TACC_Stats file under dir (layout:
// dir/<hostname>/<day>.raw) and joins the counter deltas with the
// accounting records to produce per-job summaries and the cluster-wide
// series. This is the paper's Netezza/MySQL ingest stage.
//
// Files stream through the schema-compiled fast path: records are
// reduced to Intervals as they are parsed, so the parser holds two flat
// records per host rather than a materialized file (a host's reduced
// intervals wait in its result slot for the merge). opts selects the
// strict (abort on the first fault) or lenient degraded-mode policy.
// Hosts are reduced by a pool of opts.Workers goroutines (a pool of one
// when Workers <= 1) and merged in sorted host order, so the result —
// every float sum, every quarantine decision — is the same bytes at any
// pool size: summation order is fixed by the merge, not by scheduling,
// and a host's quarantine decisions depend only on its own files.
func IngestRawOpts(dir string, acct []sched.AcctRecord, opts Options) (*RawResult, error) {
	o := opts.resolve(dir)
	windowsByHost, identities := indexAccounting(acct)

	hostDirs, err := fs.ReadDir(o.fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("ingest: read raw dir: %w", err)
	}
	hosts := sortedDirs(hostDirs)

	// Workers pull host indices from a buffered channel and write their
	// result into a per-host slot: no results mutex, and the producer
	// never blocks handing out work.
	jobs := make(chan int, len(hosts))
	results := make([]*hostResult, len(hosts))
	var wg sync.WaitGroup
	for w := 0; w < max(opts.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hi := range jobs {
				host := hosts[hi].Name()
				results[hi] = processHost(o, host, windowsByHost[host])
			}
		}()
	}
	for hi := range hosts {
		jobs <- hi
	}
	close(jobs)
	wg.Wait()

	// Deterministic merge in sorted host order.
	acc := NewAccumulator()
	buckets := make(map[int64]*sysBucket)
	unattributed := 0
	var quality DataQuality
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		unattributed += res.unattributed
		quality.add(&res.quality)
		for _, ai := range res.intervals {
			if !acc.Started(ai.jobID) {
				acc.StartJob(identities[ai.jobID])
			}
			if err := acc.AddInterval(ai.jobID, ai.iv); err != nil {
				return nil, err
			}
		}
		for i := range res.buckets {
			t := res.buckets[i].t
			b := buckets[t]
			if b == nil {
				b = &sysBucket{}
				buckets[t] = b
			}
			b.merge(&res.buckets[i].b)
		}
	}
	return finalize(acc, identities, buckets, unattributed, &quality)
}

// processHost streams one host's files into attributed intervals and
// per-time buckets through the schema-compiled fast path. It never
// touches shared state; its quarantine decisions depend only on the
// host's own files, so they do not depend on the pool size.
func processHost(o rawOptions, host string, windows []jobWindow) *hostResult {
	res := &hostResult{host: host}
	err := streamHost(o, host, &res.quality, func(prevTime, curTime int64, iv Interval) {
		mid := prevTime + int64(iv.DtSec/2)
		jobID := findJob(windows, mid)
		if jobID != 0 {
			res.intervals = append(res.intervals, attributedInterval{jobID: jobID, iv: iv})
		} else {
			res.unattributed++
		}
		var b *sysBucket
		res.buckets, b = bucketAt(res.buckets, curTime)
		b.fold(iv, jobID != 0)
	})
	if err != nil {
		res.err = err
	}
	return res
}

// merge adds another bucket's partial sums (same sample instant,
// different hosts).
func (b *sysBucket) merge(o *sysBucket) {
	b.hosts += o.hosts
	b.busy += o.busy
	b.flops += o.flops
	if o.dt > 0 {
		b.dt = o.dt
	}
	b.memKB += o.memKB
	b.user += o.user
	b.sys += o.sys
	b.idle += o.idle
	b.scratchB += o.scratchB
	b.workB += o.workB
	b.ibTxB += o.ibTxB
	b.lnetTxB += o.lnetTxB
}
