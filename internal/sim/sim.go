// Package sim is the discrete-event engine that stands in for a running
// production cluster: it executes the synthetic workload on the cluster
// model under the batch scheduler, evolves every node's counters, drives
// the per-node TACC_Stats monitors, emits rationalized log events and
// Lariat summaries, and injects the shutdowns and node failures visible
// in the paper's Fig 8.
//
// Two output modes share one code path:
//
//   - fast mode accumulates job records and the cluster series directly
//     in memory (used by the large benchmark sweeps);
//   - raw mode additionally writes real TACC_Stats text files per node
//     per day, which cmd/ingest parses back — the full-fidelity pipeline.
package sim

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"supremm/internal/cluster"
	"supremm/internal/eventlog"
	"supremm/internal/ingest"
	"supremm/internal/lariat"
	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/store"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

// Shutdown is a whole-cluster outage window (planned or unplanned).
type Shutdown struct {
	StartMin    float64
	DurationMin float64
}

// Config controls one simulation run.
type Config struct {
	Cluster cluster.Config
	Seed    int64
	// DurationMin is the simulated span; StepMin the sampling cadence
	// (10 minutes in the deployed configuration).
	DurationMin float64
	StepMin     float64
	// EpochUnix anchors simulated minute 0 (Ranger study start:
	// 2011-06-01).
	EpochUnix int64

	// Gen overrides workload generation; zero value uses defaults for
	// the cluster.
	Gen workload.GenConfig

	// Jobs, when non-nil, is used as the submission stream instead of
	// generating one from Gen (must be sorted by SubmitMin). This is how
	// application kernels and other hand-built workloads enter the
	// engine.
	Jobs []*workload.Job

	// RawDir, when non-empty, enables raw mode: TACC_Stats files are
	// written under RawDir/<hostname>/<day>.raw.
	RawDir string

	// Shutdowns lists outage windows; DefaultShutdowns provides a
	// realistic set.
	Shutdowns []Shutdown
	// NodeMTBFHours > 0 enables random single-node failures with the
	// given per-node mean time between failures.
	NodeMTBFHours float64
	// NodeRepairMin is how long a failed node stays down.
	NodeRepairMin float64

	// Policy selects the scheduling discipline (EASY backfill by
	// default; FIFO and the complementary policy exist for the
	// scheduling ablations).
	Policy sched.Policy
}

// DefaultConfig returns a 90-day run of the given preset at the given
// node scale with failures and two shutdowns enabled.
func DefaultConfig(cc cluster.Config, seed int64) Config {
	gen := workload.DefaultGenConfig(cc, seed)
	return Config{
		Cluster:       cc,
		Seed:          seed,
		DurationMin:   90 * 24 * 60,
		StepMin:       10,
		EpochUnix:     1306886400, // 2011-06-01T00:00:00Z
		Gen:           gen,
		Shutdowns:     DefaultShutdowns(90 * 24 * 60),
		NodeMTBFHours: 6000,
		NodeRepairMin: 360,
	}
}

// DefaultShutdowns places one planned half-day outage per ~45 days,
// matching the paper's "relatively infrequent" shutdowns.
func DefaultShutdowns(durationMin float64) []Shutdown {
	var out []Shutdown
	for t := 30 * 24 * 60.0; t < durationMin; t += 45 * 24 * 60 {
		out = append(out, Shutdown{StartMin: t, DurationMin: 12 * 60})
	}
	return out
}

// Result carries everything a run produces.
type Result struct {
	Store  *store.Store
	Series []store.SystemSample
	Acct   []sched.AcctRecord
	Events []eventlog.Event
	Lariat []lariat.Record

	JobsSubmitted int
	JobsCompleted int
	// MonitorBytes/MonitorSamples are raw-mode totals (§3 volume and
	// overhead accounting).
	MonitorBytes   int64
	MonitorSamples int64
}

// engine is the run-time state.
type engine struct {
	cfg   Config
	rng   *rand.Rand
	clu   *cluster.Cluster
	sched *sched.Scheduler
	acc   *ingest.Accumulator

	pending []*workload.Job // not yet submitted, sorted by SubmitMin
	next    int

	snaps    []*procfs.Snapshot   // per node, raw mode only
	monitors []*taccstats.Monitor // per node, raw mode only

	repairs map[int]float64 // node index -> repair time
	downAll bool

	hostIndex map[string]int
	rat       *eventlog.Rationalizer

	res *Result
}

// Run executes a simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.StepMin <= 0 {
		cfg.StepMin = 10
	}
	if cfg.DurationMin <= 0 {
		cfg.DurationMin = 90 * 24 * 60
	}
	if cfg.Gen.Cluster.Name == "" {
		cfg.Gen = workload.DefaultGenConfig(cfg.Cluster, cfg.Seed)
	}
	cfg.Gen.HorizonMin = cfg.DurationMin

	clu, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x51c0de)),
		clu:     clu,
		sched:   sched.New(clu, cfg.EpochUnix),
		acc:     ingest.NewAccumulator(),
		repairs: make(map[int]float64),
		res:     &Result{Store: store.New()},
	}
	e.sched.Policy = cfg.Policy
	if cfg.Jobs != nil {
		e.pending = cfg.Jobs
	} else {
		e.pending = workload.NewGenerator(cfg.Gen).Generate()
	}
	e.res.JobsSubmitted = len(e.pending)

	if cfg.RawDir != "" {
		if err := e.initRawMode(); err != nil {
			return nil, err
		}
	}

	for now := 0.0; now < cfg.DurationMin; now += cfg.StepMin {
		if err := e.step(now); err != nil {
			return nil, err
		}
	}
	e.finish(cfg.DurationMin)
	e.res.Acct = e.sched.Accounting()
	e.res.Store.SortByJobID()
	return e.res, nil
}

// initRawMode builds per-node snapshots and monitors.
func (e *engine) initRawMode() error {
	e.snaps = make([]*procfs.Snapshot, len(e.clu.Nodes))
	e.monitors = make([]*taccstats.Monitor, len(e.clu.Nodes))
	for i, n := range e.clu.Nodes {
		snap := procfs.NewNodeSnapshot(e.cfg.Cluster, n.Hostname)
		snap.Time = e.cfg.EpochUnix
		e.snaps[i] = snap
		host := n.Hostname
		rotate := func(day int) (io.WriteCloser, error) {
			dir := filepath.Join(e.cfg.RawDir, host)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			return os.Create(filepath.Join(dir, fmt.Sprintf("%d.raw", day)))
		}
		e.monitors[i] = taccstats.NewMonitor(snap, e.cfg.Cluster.Arch, rotate)
	}
	return nil
}

// step advances one sampling interval ending at now+step.
func (e *engine) step(now float64) error {
	e.applyOutages(now)
	e.submitDue(now)
	started, finished := e.sched.Step(now)
	e.onStarted(started, now)
	if err := e.onFinished(finished, now); err != nil {
		return err
	}

	// Evolve all running jobs by one step and record their usage.
	dtMin := e.cfg.StepMin
	sampleUnix := e.cfg.EpochUnix + int64((now+dtMin)*60)
	running := e.sched.RunningByID()
	sys := store.SystemSample{
		Time:        sampleUnix,
		ActiveNodes: e.clu.ActiveNodes(),
		BusyNodes:   e.clu.BusyNodes(),
		QueuedJobs:  e.sched.QueueLength(),
		RunningJobs: len(running),
	}
	var busyFracUser, busyFracSys, busyFracIdle float64
	var memKBBusy float64
	for _, rj := range running {
		u := rj.Behavior.Step(dtMin)
		nodes := len(rj.Nodes)
		if err := e.acc.AddUsage(rj.Job.ID, nodes, dtMin*60, u); err != nil {
			return err
		}
		fn := float64(nodes)
		sys.TotalTFlops += u.Flops * fn / (dtMin * 60) / 1e12
		memKBBusy += float64(u.MemUsedKB) * fn
		busyFracUser += u.UserFrac * fn
		busyFracSys += u.SysFrac * fn
		busyFracIdle += (u.IdleFrac + u.IowaitFrac) * fn
		sys.ScratchMBps += u.ScratchWriteB * fn / (dtMin * 60) * 1e-6
		sys.WorkMBps += u.WorkWriteB * fn / (dtMin * 60) * 1e-6
		sys.ShareMBps += u.ShareWriteB * fn / (dtMin * 60) * 1e-6
		sys.IBTxMBps += u.IBTxB * fn / (dtMin * 60) * 1e-6
		sys.LnetTxMBps += u.LnetTxB * fn / (dtMin * 60) * 1e-6

		if e.monitors != nil {
			e.applyUsageToNodes(rj, u, dtMin)
		}
		e.maybeEmitJobEvents(rj, u, sampleUnix)
	}
	if act := float64(sys.ActiveNodes); act > 0 {
		// Memory per active node; idle nodes hold only the OS (~0.5 GB).
		idleNodes := float64(sys.ActiveNodes - sys.BusyNodes)
		sys.MemPerNode = (memKBBusy/1024/1024 + idleNodes*0.5) / act
		// CPU fractions over all active nodes: idle nodes are 100% idle.
		sys.CPUUserFrac = busyFracUser / act
		sys.CPUSysFrac = busyFracSys / act
		sys.CPUIdleFrac = (busyFracIdle + idleNodes) / act
	}
	e.res.Series = append(e.res.Series, sys)

	if e.monitors != nil {
		e.sampleMonitors(now+dtMin, running)
	}
	return nil
}

// submitDue feeds the scheduler every job whose submit time has come.
func (e *engine) submitDue(now float64) {
	for e.next < len(e.pending) && e.pending[e.next].SubmitMin <= now {
		e.sched.Submit(e.pending[e.next])
		e.next++
	}
}

// onStarted wires behaviours, accounting identities and monitor prologs.
func (e *engine) onStarted(started []*sched.RunningJob, now float64) {
	for _, rj := range started {
		rj.Behavior = workload.NewBehavior(
			rj.Job, e.cfg.Cluster.Name,
			e.cfg.Cluster.CoresPerNode(), e.cfg.Cluster.MemPerNodeGB)
		startUnix := e.cfg.EpochUnix + int64(now*60)
		submitUnix := e.cfg.EpochUnix + int64(rj.Job.SubmitMin*60)
		e.acc.StartJob(ingest.IdentityFromJob(
			rj.Job, e.cfg.Cluster.Name, submitUnix, startUnix, 0, rj.Job.Status))
		if e.monitors != nil {
			for _, n := range rj.Nodes {
				e.snaps[n.Index].Time = startUnix
				// Prolog errors are monitor-local; the run continues, as
				// the production tool does when a node's collector hiccups.
				_ = e.monitors[n.Index].BeginJob(rj.Job.ID)
			}
		}
	}
}

// onFinished finalizes job records, Lariat summaries and monitor epilogs.
func (e *engine) onFinished(finished []*sched.RunningJob, now float64) error {
	for _, rj := range finished {
		if err := e.finalize(rj, rj.EndMin, rj.Job.Status); err != nil {
			return err
		}
	}
	_ = now
	return nil
}

// finalize closes out one allocation: job record, Lariat summary and
// monitor epilogs. It is shared by normal completion, node-failure
// kills and horizon drain.
func (e *engine) finalize(rj *sched.RunningJob, endMin float64, status workload.ExitStatus) error {
	endUnix := e.cfg.EpochUnix + int64(endMin*60)
	rec, err := e.acc.FinishJob(rj.Job.ID)
	if err != nil {
		return err
	}
	rec.End = endUnix
	rec.Status = status.String()
	e.res.Store.Add(rec)
	e.res.JobsCompleted++
	e.res.Lariat = append(e.res.Lariat,
		lariat.Summarize(rj.Job, e.cfg.Cluster.CoresPerNode()))
	if e.monitors != nil {
		for _, n := range rj.Nodes {
			e.snaps[n.Index].Time = endUnix
			_ = e.monitors[n.Index].EndJob(rj.Job.ID)
		}
	}
	return nil
}

// finish drains still-running jobs at the horizon.
func (e *engine) finish(endMin float64) {
	running := e.sched.RunningByID()
	for _, rj := range running {
		e.sched.KillJob(rj.Job.ID, endMin, rj.Job.Status)
		if err := e.finalize(rj, endMin, rj.Job.Status); err != nil {
			continue
		}
	}
	for _, m := range e.monitors {
		e.res.MonitorBytes += m.TotalBytes()
		e.res.MonitorSamples += m.Samples()
		_ = m.Close()
	}
}
