package ingest

import (
	"os"
	"sort"
	"strconv"
	"strings"

	"supremm/internal/sched"
	"supremm/internal/store"
)

// jobWindow is one job's occupancy of one host.
type jobWindow struct {
	start, end int64
	jobID      int64
}

// RawResult is what the raw-path ETL produces.
type RawResult struct {
	Store  *store.Store
	Series []store.SystemSample
	// Unattributed counts intervals that matched no accounting window
	// (idle nodes or clock skew); reported, not silently dropped.
	Unattributed int
	// Quality accounts for everything degraded-mode ingest dropped,
	// repaired, or retried; zero (plus FilesScanned) on clean archives.
	Quality DataQuality
}

// finalize turns the accumulated state into the RawResult: every
// accounting job is finished (zero-metric records for jobs that
// contributed no intervals), in sorted job order.
func finalize(acc *Accumulator, identities map[int64]store.JobRecord,
	buckets map[int64]*sysBucket, unattributed int, quality *DataQuality) (*RawResult, error) {

	st := store.New()
	ids := make([]int64, 0, len(identities))
	for id := range identities {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !acc.Started(id) {
			// Jobs shorter than one sampling interval contribute no
			// intervals; record identity with zero metrics, as the
			// deployed pipeline does (they are filtered by Samples).
			acc.StartJob(identities[id])
		}
		rec, err := acc.FinishJob(id)
		if err != nil {
			return nil, err
		}
		if rec.Samples == 0 {
			// Too short to sample, or starved because its host files
			// were quarantined; either way the completeness view must
			// know, so Unattributed and Quality never silently disagree.
			quality.JobsNoData++
		}
		st.Add(rec)
	}
	return &RawResult{
		Store: st, Series: flattenBuckets(buckets),
		Unattributed: unattributed, Quality: *quality,
	}, nil
}

// indexAccounting builds per-host occupancy windows and the identity
// records, keyed by job ID.
func indexAccounting(acct []sched.AcctRecord) (map[string][]jobWindow, map[int64]store.JobRecord) {
	windows := make(map[string][]jobWindow)
	identities := make(map[int64]store.JobRecord, len(acct))
	for _, r := range acct {
		identities[r.JobID] = store.JobRecord{
			JobID:   r.JobID,
			Cluster: r.Cluster,
			User:    r.Owner,
			App:     r.JobName,
			Science: r.Account,
			Nodes:   r.NodeCount(),
			Submit:  r.Submit,
			Start:   r.Start,
			End:     r.End,
			Status:  r.Status.String(),
		}
		for _, host := range r.NodeList {
			windows[host] = append(windows[host], jobWindow{start: r.Start, end: r.End, jobID: r.JobID})
		}
	}
	for host := range windows {
		ws := windows[host]
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	}
	return windows, identities
}

// findJob returns the job occupying the host at time t, or 0.
func findJob(windows []jobWindow, t int64) int64 {
	// Binary search on start, then check containment; windows on one
	// host never overlap (whole-node scheduling).
	i := sort.Search(len(windows), func(i int) bool { return windows[i].start > t })
	if i == 0 {
		return 0
	}
	w := windows[i-1]
	if t >= w.start && t <= w.end {
		return w.jobID
	}
	return 0
}

// eventDelta computes a counter delta with reset semantics: counters
// that moved backwards were reprogrammed (zeroed) at a job boundary, so
// the new value is the delta since the reset. This is the one blessed
// place raw counters are differenced; everything else must call it.
//
//supremmlint:wrapsafe — backwards movement is a reset, handled above.
func eventDelta(prev, cur uint64) float64 {
	if cur >= prev {
		return float64(cur - prev)
	}
	return float64(cur)
}

// sysBucket accumulates one sampling instant across hosts.
type sysBucket struct {
	hosts, busy            int
	flops                  float64 // total FP ops over the interval
	dt                     float64
	memKB                  float64
	user, sys, idle        float64
	scratchB, workB, ibTxB float64
	lnetTxB                float64
}

func (b *sysBucket) fold(iv Interval, busy bool) {
	b.hosts++
	if busy {
		b.busy++
	}
	b.flops += iv.Flops
	if iv.DtSec > 0 {
		// Keep the last positive dt, mirroring merge: a zero-dt interval
		// must not wipe the rate denominator for the whole bucket.
		b.dt = iv.DtSec
	}
	b.memKB += iv.MemUsedKB
	b.user += iv.UserFrac
	b.sys += iv.SysFrac
	b.idle += iv.IdleFrac
	b.scratchB += iv.ScratchB
	b.workB += iv.WorkB
	b.ibTxB += iv.IBTxB
	b.lnetTxB += iv.LnetTxB
}

func flattenBuckets(buckets map[int64]*sysBucket) []store.SystemSample {
	times := make([]int64, 0, len(buckets))
	for t := range buckets {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]store.SystemSample, 0, len(times))
	for _, t := range times {
		b := buckets[t]
		s := store.SystemSample{
			Time:        t,
			ActiveNodes: b.hosts,
			BusyNodes:   b.busy,
		}
		if b.dt > 0 {
			s.TotalTFlops = b.flops / b.dt / 1e12
			s.ScratchMBps = b.scratchB / b.dt * bytesToMB
			s.WorkMBps = b.workB / b.dt * bytesToMB
			s.IBTxMBps = b.ibTxB / b.dt * bytesToMB
			s.LnetTxMBps = b.lnetTxB / b.dt * bytesToMB
		}
		if b.hosts > 0 {
			s.MemPerNode = b.memKB / float64(b.hosts) * kbToGB
			s.CPUUserFrac = b.user / float64(b.hosts)
			s.CPUSysFrac = b.sys / float64(b.hosts)
			s.CPUIdleFrac = b.idle / float64(b.hosts)
		}
		out = append(out, s)
	}
	return out
}

func sortedDirs(entries []os.DirEntry) []os.DirEntry {
	dirs := make([]os.DirEntry, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e)
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Name() < dirs[j].Name() })
	return dirs
}

// sortedRawFiles orders day files numerically ("2.raw" before "10.raw").
func sortedRawFiles(entries []os.DirEntry) []os.DirEntry {
	files := make([]os.DirEntry, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".raw") {
			files = append(files, e)
		}
	}
	dayOf := func(name string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(name, ".raw"))
		if err != nil {
			return 1 << 30
		}
		return n
	}
	sort.Slice(files, func(i, j int) bool { return dayOf(files[i].Name()) < dayOf(files[j].Name()) })
	return files
}
