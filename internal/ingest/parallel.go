package ingest

import (
	"fmt"
	"io/fs"
	"sync/atomic"

	"supremm/internal/sched"
	"supremm/internal/store"
)

// hostResult is what one host's raw files contribute until its turn in
// the fold: its committed intervals, in file order, and its data-quality
// accounting.
type hostResult struct {
	intervals []timedInterval
	quality   DataQuality
	err       error
}

// IngestRawOpts parses every raw TACC_Stats file under dir (layout:
// dir/<hostname>/<day>.raw) and joins the counter deltas with the
// accounting records to produce per-job summaries and the cluster-wide
// series. This is the paper's Netezza/MySQL ingest stage.
//
// Hosts are reduced on up to opts.Workers goroutines (store.RunChunks;
// inline when Workers <= 1) and folded in sorted host order: each
// interval goes to the job on the host at its midpoint and to the
// system bucket of its end time. At most 2*Workers reduced hosts wait
// for their turn, so ingest holds those, the job sums and the buckets,
// never the batch. The fold fixes every float sum's order and a host's
// quarantine decisions depend only on its own files, so the result is
// the same bytes at any pool size. opts selects the strict (abort on
// the first fault; hosts not yet started are skipped) or lenient
// degraded-mode policy.
func IngestRawOpts(dir string, acct []sched.AcctRecord, opts Options) (*RawResult, error) {
	o := opts.resolve(dir)
	windowsByHost, identities := indexAccounting(acct)

	hostDirs, err := fs.ReadDir(o.FS, ".")
	if err != nil {
		return nil, fmt.Errorf("ingest: read raw dir: %w", err)
	}
	hosts := sortedDirs(hostDirs)

	acc := NewAccumulator()
	buckets := make(map[int64]*sysBucket)
	unattributed := 0
	fold := func(intervals []timedInterval, windows []jobWindow) error {
		for i := range intervals {
			ti := &intervals[i]
			jobID := findJob(windows, ti.prevTime+int64(ti.iv.DtSec/2))
			if jobID != 0 {
				if !acc.Started(jobID) {
					acc.StartJob(identities[jobID])
				}
				if err := acc.AddInterval(jobID, ti.iv); err != nil {
					return err
				}
			} else {
				unattributed++
			}
			b := buckets[ti.curTime]
			if b == nil {
				b = &sysBucket{}
				buckets[ti.curTime] = b
			}
			b.fold(ti.iv, jobID != 0)
		}
		return nil
	}

	var quality DataQuality
	var fault error
	var faulted atomic.Bool // fault is set: skip the hosts still to start
	// Each host reduces into its own slot; the fold empties it.
	results := make([]hostResult, len(hosts))
	store.RunChunks(len(hosts), opts.Workers, func(hi int) {
		if !faulted.Load() {
			res := &results[hi]
			res.intervals, res.err = streamHost(o, hosts[hi].Name(), &res.quality)
		}
	}, func(hi int) {
		res := results[hi]
		results[hi] = hostResult{}
		if fault == nil {
			if fault = res.err; fault == nil {
				quality.add(&res.quality)
				fault = fold(res.intervals, windowsByHost[hosts[hi].Name()])
			}
			faulted.Store(fault != nil)
		}
	})
	if fault != nil {
		return nil, fault
	}
	return finalize(acc, identities, buckets, unattributed, &quality)
}
