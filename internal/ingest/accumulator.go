// Package ingest is the ETL stage of the pipeline (paper Fig 1): it
// turns raw per-node monitor output plus scheduler accounting into the
// per-job summary records the analytics layer queries, joining the two
// sources by job ID. Two paths produce identical records:
//
//   - the raw path parses TACC_Stats text files, computes counter deltas
//     per interval and attributes them to jobs via the accounting windows
//     (IngestRawOpts);
//   - the direct path accumulates the simulator's per-interval usage
//     in memory, skipping serialization for large sweeps (Accumulator).
//
// Equivalence of the two paths is asserted by the integration tests.
package ingest

import (
	"fmt"

	"supremm/internal/store"
	"supremm/internal/workload"
)

// bytesToMB converts to the MB used throughout the metric vocabulary.
const bytesToMB = 1e-6

// kbToGB converts the memory gauges.
const kbToGB = 1.0 / (1024 * 1024)

// jobAcc accumulates one job's node-second-weighted sums.
type jobAcc struct {
	rec store.JobRecord

	nodeSecs float64 // sum over (nodes * interval seconds)

	idle, user, sys float64 // fraction-weighted node-seconds
	memKB           float64 // gauge-weighted node-seconds
	maxMemKB        float64
	flops           float64 // total FP ops
	scratchB, workB float64 // total bytes
	readB           float64
	ibTxB, ibRxB    float64
	lnetTxB         float64
	samples         int
}

// Accumulator builds JobRecords incrementally.
type Accumulator struct {
	jobs map[int64]*jobAcc
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{jobs: make(map[int64]*jobAcc)}
}

// StartJob registers a job's identity. Usage added for unregistered jobs
// is an error, because it means the accounting join failed.
func (a *Accumulator) StartJob(rec store.JobRecord) {
	a.jobs[rec.JobID] = &jobAcc{rec: rec}
}

// Started reports whether the job is registered.
func (a *Accumulator) Started(jobID int64) bool {
	_, ok := a.jobs[jobID]
	return ok
}

// Interval is one raw-path measurement on a single host: counter deltas
// over dtSec seconds, already resolved to metric units.
type Interval struct {
	DtSec float64
	// Fractions of core-time over the interval.
	IdleFrac, UserFrac, SysFrac float64
	// MemUsedKB is the end-of-interval gauge summed over sockets.
	MemUsedKB float64
	// Deltas over the interval.
	Flops           float64
	ScratchB, WorkB float64
	ReadB           float64
	IBTxB, IBRxB    float64
	LnetTxB         float64
}

// AddInterval accrues one raw-path interval from one host; it is the
// accumulator's one fold (AddUsage goes through it).
func (a *Accumulator) AddInterval(jobID int64, iv Interval) error {
	acc, ok := a.jobs[jobID]
	if !ok {
		return fmt.Errorf("ingest: interval for unknown job %d", jobID)
	}
	w := iv.DtSec
	acc.nodeSecs += w
	acc.idle += iv.IdleFrac * w
	acc.user += iv.UserFrac * w
	acc.sys += iv.SysFrac * w
	acc.memKB += iv.MemUsedKB * w
	if iv.MemUsedKB > acc.maxMemKB {
		acc.maxMemKB = iv.MemUsedKB
	}
	acc.flops += iv.Flops
	acc.scratchB += iv.ScratchB
	acc.workB += iv.WorkB
	acc.readB += iv.ReadB
	acc.ibTxB += iv.IBTxB
	acc.ibRxB += iv.IBRxB
	acc.lnetTxB += iv.LnetTxB
	acc.samples++
	return nil
}

// AddUsage accrues one interval of per-node usage replicated across
// `nodes` nodes (the direct path; SPMD jobs behave coherently across
// their allocation): the Interval `nodes` hosts would each have
// reported, folded once with its node-seconds and deltas summed.
func (a *Accumulator) AddUsage(jobID int64, nodes int, dtSec float64, u workload.NodeUsage) error {
	n := float64(nodes)
	return a.AddInterval(jobID, Interval{
		DtSec:     n * dtSec,
		IdleFrac:  u.IdleFrac,
		UserFrac:  u.UserFrac,
		SysFrac:   u.SysFrac,
		MemUsedKB: float64(u.MemUsedKB),
		Flops:     u.Flops * n,
		ScratchB:  u.ScratchWriteB * n,
		WorkB:     u.WorkWriteB * n,
		ReadB:     u.ReadB * n,
		IBTxB:     u.IBTxB * n,
		IBRxB:     u.IBRxB * n,
		LnetTxB:   u.LnetTxB * n,
	})
}

// FinishJob finalizes a job into its summary record and removes it from
// the accumulator. Jobs with no accumulated node-seconds produce a
// record with zero metrics (they ran shorter than one sampling interval;
// the §4.1 analyses filter them via Samples).
func (a *Accumulator) FinishJob(jobID int64) (store.JobRecord, error) {
	acc, ok := a.jobs[jobID]
	if !ok {
		return store.JobRecord{}, fmt.Errorf("ingest: finish for unknown job %d", jobID)
	}
	delete(a.jobs, jobID)
	rec := acc.rec
	rec.Samples = acc.samples
	if acc.nodeSecs > 0 {
		ns := acc.nodeSecs
		rec.CPUIdleFrac = acc.idle / ns
		rec.CPUUserFrac = acc.user / ns
		rec.CPUSysFrac = acc.sys / ns
		rec.MemUsedGB = acc.memKB / ns * kbToGB
		rec.MemUsedMaxGB = acc.maxMemKB * kbToGB
		rec.FlopsGF = acc.flops / ns / 1e9
		rec.ScratchWriteMB = acc.scratchB / ns * bytesToMB
		rec.WorkWriteMB = acc.workB / ns * bytesToMB
		rec.ReadMB = acc.readB / ns * bytesToMB
		rec.IBTxMB = acc.ibTxB / ns * bytesToMB
		rec.IBRxMB = acc.ibRxB / ns * bytesToMB
		rec.LnetTxMB = acc.lnetTxB / ns * bytesToMB
	}
	return rec, nil
}

// Pending returns how many jobs are started but not finished.
func (a *Accumulator) Pending() int { return len(a.jobs) }

// IdentityFromJob builds the identity half of a JobRecord from workload
// and scheduling facts. start/end/submit are unix seconds.
func IdentityFromJob(j *workload.Job, clusterName string, submit, start, end int64, status workload.ExitStatus) store.JobRecord {
	return store.JobRecord{
		JobID:   j.ID,
		Cluster: clusterName,
		User:    j.User.Name,
		App:     j.App.Name,
		Science: string(j.User.Science),
		Nodes:   j.Nodes,
		Submit:  submit,
		Start:   start,
		End:     end,
		Status:  status.String(),
	}
}
