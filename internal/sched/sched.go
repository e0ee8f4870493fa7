// Package sched implements the batch system substrate: a FIFO scheduler
// with EASY backfill over whole nodes, producing SGE-style accounting
// records of the kind the paper's ingest pipeline joins with TACC_Stats
// data by job ID. Job start/end events also drive the monitors' job-aware
// rotation (§3: TACC_Stats executes at the beginning of a job,
// periodically during it, and at the end).
package sched

import (
	"fmt"
	"sort"

	"supremm/internal/cluster"
	"supremm/internal/workload"
)

// RunningJob is an allocation of nodes to a started job.
type RunningJob struct {
	Job      *workload.Job
	Nodes    []*cluster.Node
	StartMin float64
	// EndMin is the time the job will finish given its sampled runtime
	// (or its wallclock limit for timeouts). Node failures can end it
	// earlier.
	EndMin float64
	// Behavior carries the per-job resource process; owned by the sim
	// engine, stored here so engines can look it up per allocation.
	Behavior *workload.Behavior
}

// Scheduler queues submissions and places them on idle nodes.
type Scheduler struct {
	cluster *cluster.Cluster
	queue   []*workload.Job
	running map[int64]*RunningJob
	acct    []AcctRecord
	epoch   int64 // unix seconds at sim minute 0

	// MaxBackfillScan bounds how deep into the queue backfill looks.
	MaxBackfillScan int
	// Policy selects the discipline; zero value is EASY backfill.
	Policy Policy
}

// New creates a scheduler over a cluster. epochUnix anchors accounting
// timestamps (simulation minute 0).
func New(c *cluster.Cluster, epochUnix int64) *Scheduler {
	return &Scheduler{
		cluster:         c,
		running:         make(map[int64]*RunningJob),
		epoch:           epochUnix,
		MaxBackfillScan: 128,
	}
}

// Epoch returns the unix time of simulation minute 0.
func (s *Scheduler) Epoch() int64 { return s.epoch }

// Submit enqueues a job.
func (s *Scheduler) Submit(j *workload.Job) { s.queue = append(s.queue, j) }

// QueueLength reports the number of queued (not yet started) jobs.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// RunningByID returns the running allocations in job-ID order, the
// order anything summed or scanned over them must take.
func (s *Scheduler) RunningByID() []*RunningJob {
	out := make([]*RunningJob, 0, len(s.running))
	for _, rj := range s.running {
		out = append(out, rj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Accounting returns all records emitted so far.
func (s *Scheduler) Accounting() []AcctRecord { return s.acct }

// unix converts a sim minute to unix seconds.
func (s *Scheduler) unix(min float64) int64 { return s.epoch + int64(min*60) }

// Step advances the scheduler to time nowMin: it completes jobs whose
// end time has passed, then starts queued jobs under FIFO + EASY
// backfill. It returns the allocations started and the allocations
// finished during this step.
func (s *Scheduler) Step(nowMin float64) (started, finished []*RunningJob) {
	finished = s.finishDue(nowMin)
	started = s.startJobs(nowMin)
	return started, finished
}

// finishDue completes running jobs with EndMin <= now.
func (s *Scheduler) finishDue(nowMin float64) []*RunningJob {
	var done []*RunningJob
	for _, rj := range s.running {
		if rj.EndMin <= nowMin {
			done = append(done, rj)
		}
	}
	// Deterministic order regardless of map iteration.
	sort.Slice(done, func(i, j int) bool {
		if done[i].EndMin != done[j].EndMin {
			return done[i].EndMin < done[j].EndMin
		}
		return done[i].Job.ID < done[j].Job.ID
	})
	for _, rj := range done {
		s.complete(rj, rj.EndMin, rj.Job.Status)
	}
	return done
}

// complete frees nodes and emits the accounting record.
func (s *Scheduler) complete(rj *RunningJob, endMin float64, status workload.ExitStatus) {
	for _, n := range rj.Nodes {
		if n.State == cluster.NodeBusy {
			n.State = cluster.NodeIdle
		}
		n.JobID = 0
	}
	delete(s.running, rj.Job.ID)
	s.acct = append(s.acct, AcctRecord{
		Cluster:  s.cluster.Config.Name,
		Owner:    rj.Job.User.Name,
		JobName:  rj.Job.App.Name,
		JobID:    rj.Job.ID,
		Account:  string(rj.Job.User.Science),
		Submit:   s.unix(rj.Job.SubmitMin),
		Start:    s.unix(rj.StartMin),
		End:      s.unix(endMin),
		Status:   status,
		Slots:    rj.Job.Nodes * s.cluster.Config.CoresPerNode(),
		NodeList: hostnames(rj.Nodes),
	})
}

// startJobs runs the FIFO + EASY backfill pass.
func (s *Scheduler) startJobs(nowMin float64) []*RunningJob {
	var started []*RunningJob
	for {
		idle := s.cluster.IdleNodes()
		if len(s.queue) == 0 {
			break
		}
		head := s.queue[0]
		if head.Nodes <= len(idle) {
			started = append(started, s.start(head, idle[:head.Nodes], nowMin))
			s.queue = s.queue[1:]
			continue
		}
		if s.Policy == PolicyFIFO {
			// Strict FIFO never starts anything ahead of the head.
			break
		}
		// Head does not fit: EASY backfill. Compute the shadow time at
		// which the head job could start if nothing new were scheduled,
		// then start a later job that fits in the idle nodes and is
		// short enough to finish before the shadow time. EASY takes the
		// first eligible candidate; the complementary policy scores all
		// of them against the running mix (§4.3.4 future work) and takes
		// the best.
		shadow, spareNodes := s.shadow(head, nowMin, len(idle))
		scan := s.queue[1:]
		if len(scan) > s.MaxBackfillScan {
			scan = scan[:s.MaxBackfillScan]
		}
		var load mixLoad
		if s.Policy == PolicyComplementary {
			load = s.runningLoad() // nothing starts until the scan ends
		}
		bestIdx := -1
		bestScore := 0.0
		for i, j := range scan {
			if j.Nodes > len(idle) {
				continue
			}
			// A backfill candidate must either finish before the shadow
			// time or use only nodes beyond what the head job needs.
			if nowMin+j.ReqMin > shadow && j.Nodes > spareNodes {
				continue
			}
			if s.Policy != PolicyComplementary {
				bestIdx = i
				break
			}
			if score := load.complementScore(j); bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			break
		}
		j := s.queue[1+bestIdx]
		started = append(started, s.start(j, idle[:j.Nodes], nowMin))
		s.queue = append(s.queue[:1+bestIdx], s.queue[2+bestIdx:]...)
		if j.Nodes <= spareNodes {
			spareNodes -= j.Nodes
		}
	}
	return started
}

// shadow computes the earliest time the head job could start based on
// currently running jobs' end times, plus how many idle nodes would
// remain unclaimed by the head job at that time (spare for backfill).
func (s *Scheduler) shadow(head *workload.Job, nowMin float64, idleNow int) (shadowMin float64, spare int) {
	type rel struct {
		end   float64
		nodes int
	}
	rels := make([]rel, 0, len(s.running))
	for _, rj := range s.RunningByID() {
		rels = append(rels, rel{rj.EndMin, len(rj.Nodes)})
	}
	// Jobs ending together release their nodes in job-ID order.
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].end < rels[j].end })
	avail := idleNow
	for _, r := range rels {
		if avail >= head.Nodes {
			break
		}
		avail += r.nodes
		shadowMin = r.end
	}
	if avail < head.Nodes {
		// Even with everything finished it never fits (oversized job);
		// park the shadow far away so nothing is held back.
		return nowMin + 1e9, idleNow
	}
	return shadowMin, avail - head.Nodes
}

// start allocates nodes to a job.
func (s *Scheduler) start(j *workload.Job, nodes []*cluster.Node, nowMin float64) *RunningJob {
	alloc := make([]*cluster.Node, len(nodes))
	copy(alloc, nodes)
	for _, n := range alloc {
		n.State = cluster.NodeBusy
		n.JobID = j.ID
	}
	rj := &RunningJob{
		Job:      j,
		Nodes:    alloc,
		StartMin: nowMin,
		EndMin:   nowMin + j.RuntimeMin,
	}
	s.running[j.ID] = rj
	return rj
}

// KillJob terminates a running job immediately with the given status
// (used for node failures and shutdowns). It returns the allocation, or
// nil if the job is not running.
func (s *Scheduler) KillJob(jobID int64, nowMin float64, status workload.ExitStatus) *RunningJob {
	rj, ok := s.running[jobID]
	if !ok {
		return nil
	}
	rj.EndMin = nowMin
	s.complete(rj, nowMin, status)
	return rj
}

// NodeDown marks a node down. If a job was running there the whole job
// is killed with NODE_FAIL (gang-scheduled MPI semantics). The killed
// allocation (or nil) is returned.
func (s *Scheduler) NodeDown(n *cluster.Node, nowMin float64) *RunningJob {
	jobID := n.JobID
	var killed *RunningJob
	if jobID != 0 {
		killed = s.KillJob(jobID, nowMin, workload.NodeFail)
	}
	n.State = cluster.NodeDown
	n.JobID = 0
	return killed
}

// NodeUp returns a node to service.
func (s *Scheduler) NodeUp(n *cluster.Node) {
	if n.State == cluster.NodeDown {
		n.State = cluster.NodeIdle
	}
}

func hostnames(nodes []*cluster.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Hostname
	}
	return out
}

// String summarizes scheduler state for logs.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sched{queued=%d running=%d acct=%d}", len(s.queue), len(s.running), len(s.acct))
}
