package reference

import (
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"strconv"
	"strings"

	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/store"
)

// IngestResult is what Ingest makes of a raw archive and its
// accounting.
type IngestResult struct {
	// Jobs holds one record per accounting job ID, in ID order.
	Jobs []store.JobRecord
	// Series holds one sample per interval end time, in time order.
	Series []store.SystemSample
	// Unattributed counts the intervals no accounting window holds.
	Unattributed int
	Quality      IngestQuality
}

// IngestQuality is the data-quality account of an ingest: every
// counter of ingest.DataQuality, and the quarantined files without
// their reasons.
type IngestQuality struct {
	FilesScanned, FilesQuarantined    int
	RecordsDropped, DuplicatesSkipped int
	ResetsDetected, IntervalsClamped  int
	RetriesPerformed, JobsNoData      int
	Quarantined                       []HostFile
}

// HostFile names one day file of a raw archive.
type HostFile struct{ Host, File string }

// Fault is the error a strict Ingest stops with: the first file it
// rejects.
type Fault struct {
	HostFile
	Err error
}

func (e *Fault) Error() string {
	return fmt.Sprintf("reference: fault at %s/%s: %v", e.Host, e.File, e.Err)
}

func (e *Fault) Unwrap() error { return e.Err }

// maxIntervalSec is the longest interval Ingest attributes.
const maxIntervalSec = 86400

// cpuKeys are the CPU time counters a reset is read from.
var cpuKeys = []string{"user", "nice", "system", "irq", "softirq", "idle", "iowait"}

// Ingest is the naive raw-path ETL (paper Fig 1): raw TACC_Stats files
// and the scheduler's accounting in, per-job records and the
// cluster-wide series out. Its rules, one each:
//
//   - Files are <host>/<N>.raw: hosts are the archive's directories, in
//     name order, and each host's files are read in the order of N,
//     files whose N is not a number last.
//   - A line's values are kept under the schema that line was read
//     under, so no lookup goes through a later schema.
//   - A file is quarantined (lenient), or stops the run at (host, file)
//     (strict), if Parse rejects it, or if a type is re-declared with a
//     changed schema after a data line of that type was read since its
//     schema last changed; quarantine resets the host's carry, so no
//     interval bridges the file.
//   - The records of a host's accepted files, in order, make its record
//     pairs; each pair whose times differ by dt seconds is one interval.
//   - An absent (type, device, key) reads zero.
//   - An event counter's delta is cur − prev, or cur when it moved
//     backwards (it was reset, and counts from zero).
//   - Device sums run in the order devices first appear in the file of
//     the pair's later record, so they are the same bits for counters
//     at or above 2^53 too.
//   - dt < 0 drops the interval (records_dropped) and the record
//     becomes the baseline; dt == 0 counts a duplicate; a CPU time
//     counter moving backwards on any device counts a reset; dt > 86 400
//     s counts a clamped interval and attributes nothing.
//   - An interval goes to the job whose accounting window on its host
//     holds its midpoint, prev + (cur − prev)/2 — of several (a job
//     nested in another), the one that started last, and of those that
//     started together the one later in the accounting — and to the
//     series sample of its end time, busy or idle.
//   - The job sums and series samples add host after host, each host's
//     intervals in order; every accounting job gets a record, one with
//     no interval (jobs_no_data) all zero metrics.
func Ingest(fsys fs.FS, acct []sched.AcctRecord, strict bool) (*IngestResult, error) {
	top, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, err
	}
	var hosts []string
	for _, e := range top {
		if e.IsDir() {
			hosts = append(hosts, e.Name())
		}
	}
	sort.Strings(hosts)

	res := &IngestResult{}
	q := &res.Quality
	jobs := map[int64]*jobSums{}
	samples := map[int64]*sample{}
	for _, host := range hosts {
		names, err := dayFiles(fsys, host)
		if err != nil {
			return nil, err
		}
		var prev *RawRecord // the host's carry
		for _, name := range names {
			q.FilesScanned++
			f, err := readRaw(fsys, host+"/"+name)
			if err != nil {
				if strict {
					return nil, &Fault{HostFile{host, name}, err}
				}
				q.FilesQuarantined++
				q.Quarantined = append(q.Quarantined, HostFile{host, name})
				prev = nil
				continue
			}
			for i := range f.Records {
				cur := &f.Records[i]
				if prev != nil {
					dt := cur.Time - prev.Time
					switch {
					case dt < 0:
						q.RecordsDropped++
					case dt == 0:
						q.DuplicatesSkipped++
					default:
						if movedBackwards(prev, cur) {
							q.ResetsDetected++
						}
						if dt > maxIntervalSec {
							q.IntervalsClamped++
							break
						}
						iv := reduce(prev, cur, f.Devices, float64(dt))
						job := jobAt(acct, host, prev.Time+dt/2)
						if job == 0 {
							res.Unattributed++
						} else {
							if jobs[job] == nil {
								jobs[job] = &jobSums{}
							}
							jobs[job].add(iv)
						}
						if samples[cur.Time] == nil {
							samples[cur.Time] = &sample{}
						}
						samples[cur.Time].add(iv, job != 0)
					}
				}
				prev = cur
			}
		}
	}
	res.Jobs = finishJobs(acct, jobs, q)
	res.Series = series(samples)
	return res, nil
}

// dayFiles lists a host directory's day files in day order.
func dayFiles(fsys fs.FS, host string) ([]string, error) {
	entries, err := fs.ReadDir(fsys, host)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".raw") {
			names = append(names, e.Name())
		}
	}
	day := func(name string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(name, ".raw"))
		if err != nil {
			return 1 << 30
		}
		return n
	}
	sort.SliceStable(names, func(i, j int) bool { return day(names[i]) < day(names[j]) })
	return names, nil
}

// readRaw parses one file and refuses one whose type a changed schema
// re-declared after a data line of it was read.
func readRaw(fsys fs.FS, name string) (*RawFile, error) {
	data, err := fs.ReadFile(fsys, name)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if f.Redeclared != "" {
		return nil, fmt.Errorf("type %s re-declared after its data was read", f.Redeclared)
	}
	return f, nil
}

// delta is an event counter's increase from prev to cur; a counter that
// moved backwards was reset and counts from zero.
func delta(prev, cur uint64) float64 {
	if cur < prev {
		return float64(cur)
	}
	return float64(cur - prev)
}

// movedBackwards reports whether a CPU time counter of any device reads
// less in cur than in prev. Only a device prev holds can read less.
func movedBackwards(prev, cur *RawRecord) bool {
	for dev := range prev.Data[procfs.TypeCPU] {
		for _, key := range cpuKeys {
			p, _ := prev.Get(procfs.TypeCPU, dev, key)
			c, _ := cur.Get(procfs.TypeCPU, dev, key)
			if c < p {
				return true
			}
		}
	}
	return false
}

// interval is one record pair's metrics on one host.
type interval struct {
	dt                            float64
	idleFrac, userFrac, sysFrac   float64
	memKB                         float64
	flops, scratchB, workB, readB float64
	ibTxB, ibRxB, lnetTxB         float64
}

// reduce computes a record pair's interval, summing each counter over
// devs, the devices of cur's file in first-appearance order.
func reduce(prev, cur *RawRecord, devs map[string][]string, dt float64) interval {
	sum := func(typ, key string) float64 {
		var total float64
		for _, dev := range devs[typ] {
			p, _ := prev.Get(typ, dev, key)
			c, _ := cur.Get(typ, dev, key)
			total += delta(p, c)
		}
		return total
	}
	cpu := procfs.TypeCPU
	user := sum(cpu, "user") + sum(cpu, "nice")
	sys := sum(cpu, "system") + sum(cpu, "irq") + sum(cpu, "softirq")
	idle := sum(cpu, "idle")
	iowait := sum(cpu, "iowait")
	total := user + sys + idle + iowait
	iv := interval{dt: dt}
	if total > 0 {
		iv.userFrac = user / total
		iv.sysFrac = sys / total
		iv.idleFrac = (idle + iowait) / total
	}
	for _, dev := range devs[procfs.TypeMem] {
		v, _ := cur.Get(procfs.TypeMem, dev, "MemUsed")
		iv.memKB += float64(v)
	}
	iv.flops = sum(procfs.TypeAMDPMC, "FLOPS") + sum(procfs.TypeIntelPMC, "FLOPS")
	for _, dev := range devs[procfs.TypeLlite] {
		pw, _ := prev.Get(procfs.TypeLlite, dev, "write_bytes")
		cw, _ := cur.Get(procfs.TypeLlite, dev, "write_bytes")
		switch dev {
		case "scratch":
			iv.scratchB += delta(pw, cw)
		case "work":
			iv.workB += delta(pw, cw)
		}
		pr, _ := prev.Get(procfs.TypeLlite, dev, "read_bytes")
		cr, _ := cur.Get(procfs.TypeLlite, dev, "read_bytes")
		iv.readB += delta(pr, cr)
	}
	iv.ibTxB = sum(procfs.TypeIB, "tx_bytes")
	iv.ibRxB = sum(procfs.TypeIB, "rx_bytes")
	iv.lnetTxB = sum(procfs.TypeLnet, "tx_bytes")
	return iv
}

// jobAt is the job whose accounting window on host holds t and started
// last, the later in acct on a tie; 0 for none.
func jobAt(acct []sched.AcctRecord, host string, t int64) int64 {
	var job, start int64
	for _, r := range acct {
		if t >= r.Start && t <= r.End && slices.Contains(r.NodeList, host) && (job == 0 || r.Start >= start) {
			job, start = r.JobID, r.Start
		}
	}
	return job
}

// jobSums is one job's intervals added up, the node-seconds weighting
// the fractions and the memory gauge.
type jobSums struct {
	nodeSecs, idle, user, sys, memKB, maxMemKB float64
	flops, scratchB, workB, readB              float64
	ibTxB, ibRxB, lnetTxB                      float64
	samples                                    int
}

func (s *jobSums) add(iv interval) {
	s.nodeSecs += iv.dt
	s.idle += iv.idleFrac * iv.dt
	s.user += iv.userFrac * iv.dt
	s.sys += iv.sysFrac * iv.dt
	s.memKB += iv.memKB * iv.dt
	if iv.memKB > s.maxMemKB {
		s.maxMemKB = iv.memKB
	}
	s.flops += iv.flops
	s.scratchB += iv.scratchB
	s.workB += iv.workB
	s.readB += iv.readB
	s.ibTxB += iv.ibTxB
	s.ibRxB += iv.ibRxB
	s.lnetTxB += iv.lnetTxB
	s.samples++
}

// finishJobs makes every accounting job's record, in job ID order: its
// identity from the job's last accounting record, and its metrics
// per node-second (bytes in MB, KB in GB, FLOPs in GF).
func finishJobs(acct []sched.AcctRecord, jobs map[int64]*jobSums, q *IngestQuality) []store.JobRecord {
	byID := map[int64]sched.AcctRecord{}
	for _, r := range acct {
		byID[r.JobID] = r
	}
	var ids []int64
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []store.JobRecord
	for _, id := range ids {
		r := byID[id]
		rec := store.JobRecord{
			JobID: r.JobID, Cluster: r.Cluster, User: r.Owner, App: r.JobName,
			Science: r.Account, Nodes: len(r.NodeList),
			Submit: r.Submit, Start: r.Start, End: r.End, Status: r.Status.String(),
		}
		if s := jobs[id]; s != nil {
			ns := s.nodeSecs
			rec.Samples = s.samples
			rec.CPUIdleFrac = s.idle / ns
			rec.CPUUserFrac = s.user / ns
			rec.CPUSysFrac = s.sys / ns
			rec.MemUsedGB = s.memKB / ns * kbToGB
			rec.MemUsedMaxGB = s.maxMemKB * kbToGB
			rec.FlopsGF = s.flops / ns / 1e9
			rec.ScratchWriteMB = s.scratchB / ns * bytesToMB
			rec.WorkWriteMB = s.workB / ns * bytesToMB
			rec.ReadMB = s.readB / ns * bytesToMB
			rec.IBTxMB = s.ibTxB / ns * bytesToMB
			rec.IBRxMB = s.ibRxB / ns * bytesToMB
			rec.LnetTxMB = s.lnetTxB / ns * bytesToMB
		} else {
			q.JobsNoData++
		}
		out = append(out, rec)
	}
	return out
}

const (
	bytesToMB = 1e-6
	kbToGB    = 1.0 / (1024 * 1024)
)

// sample is one series instant: every host's interval ending then.
type sample struct {
	hosts, busy                     int
	dt                              float64
	flops, memKB, user, sys, idle   float64
	scratchB, workB, ibTxB, lnetTxB float64
}

func (s *sample) add(iv interval, busy bool) {
	s.hosts++
	if busy {
		s.busy++
	}
	s.dt = iv.dt
	s.flops += iv.flops
	s.memKB += iv.memKB
	s.user += iv.userFrac
	s.sys += iv.sysFrac
	s.idle += iv.idleFrac
	s.scratchB += iv.scratchB
	s.workB += iv.workB
	s.ibTxB += iv.ibTxB
	s.lnetTxB += iv.lnetTxB
}

// series renders the samples in time order: rates over the last
// interval's dt, memory and CPU fractions per host.
func series(samples map[int64]*sample) []store.SystemSample {
	var times []int64
	for t := range samples {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]store.SystemSample, 0, len(times))
	for _, t := range times {
		s := samples[t]
		n := float64(s.hosts)
		out = append(out, store.SystemSample{
			Time: t, ActiveNodes: s.hosts, BusyNodes: s.busy,
			TotalTFlops: s.flops / s.dt / 1e12,
			ScratchMBps: s.scratchB / s.dt * bytesToMB,
			WorkMBps:    s.workB / s.dt * bytesToMB,
			IBTxMBps:    s.ibTxB / s.dt * bytesToMB,
			LnetTxMBps:  s.lnetTxB / s.dt * bytesToMB,
			MemPerNode:  s.memKB / n * kbToGB,
			CPUUserFrac: s.user / n,
			CPUSysFrac:  s.sys / n,
			CPUIdleFrac: s.idle / n,
		})
	}
	return out
}
