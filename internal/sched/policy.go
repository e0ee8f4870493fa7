package sched

import (
	"math"

	"supremm/internal/stats"
	"supremm/internal/workload"
)

// Policy selects the scheduling discipline.
type Policy int

// Policies.
const (
	// PolicyEASY is FIFO with EASY backfill (the default; what Ranger's
	// SGE deployment effectively ran).
	PolicyEASY Policy = iota
	// PolicyFIFO is strict FIFO: nothing starts ahead of the queue head.
	PolicyFIFO
	// PolicyComplementary is the paper's §4.3.4/§5 future-work idea made
	// concrete: "jobs could be selected from the queue to complement the
	// present resource usage e.g. add high I/O jobs when I/O is
	// relatively free". Among EASY-eligible backfill candidates it picks
	// the one whose expected IO and network demand best complements the
	// currently running mix, instead of the first that fits.
	PolicyComplementary
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyEASY:
		return "easy"
	case PolicyFIFO:
		return "fifo"
	case PolicyComplementary:
		return "complementary"
	default:
		return "policy?"
	}
}

// mixLoad is the running mix: its busy nodes and their expected IO and
// network rates (profile expectations — the scheduler does not see live
// counters, matching how a production policy would be bootstrapped from
// historical profiles, §4.3.4).
type mixLoad struct{ busy, ioMBps, netMBps float64 }

// runningLoad sums the running jobs in job-ID order: a float sum in map
// order would differ between runs in its last bits, and flip ties
// between candidates' scores.
func (s *Scheduler) runningLoad() mixLoad {
	var l mixLoad
	for _, rj := range s.RunningByID() {
		p := rj.Job.App.Profile
		n := float64(len(rj.Nodes))
		l.busy += n
		l.ioMBps += (p.ScratchWriteMBps + p.WorkWriteMBps + p.ReadMBps) * n
		l.netMBps += p.IBTxMBps * n
	}
	return l
}

// jobLoad returns a job's expected total IO and network demand.
func jobLoad(j *workload.Job) (ioMBps, netMBps float64) {
	p := j.App.Profile
	n := float64(j.Nodes)
	return (p.ScratchWriteMBps + p.WorkWriteMBps + p.ReadMBps) * n, p.IBTxMBps * n
}

// complementScore ranks a candidate against the running mix: lower is
// better. Loads are normalized per busy node so the score is
// scale-free; a candidate that adds IO pressure while IO is already hot
// scores badly, one that fills a cold dimension scores well.
func (l mixLoad) complementScore(j *workload.Job) float64 {
	if l.busy == 0 {
		return 0
	}
	jIO, jNet := jobLoad(j)
	// Reference scales: typical per-node rates in the archetype mix.
	const refIO, refNet = 4.0, 20.0 // MB/s per node
	normCurIO := l.ioMBps / l.busy / refIO
	normCurNet := l.netMBps / l.busy / refNet
	normJIO := jIO / float64(j.Nodes) / refIO
	normJNet := jNet / float64(j.Nodes) / refNet
	return normCurIO*normJIO + normCurNet*normJNet
}

// WaitStats summarizes queue waits from the accounting log — the
// §4.3.4 systems-administration report for "determining 'optimal'
// settings for system software such as job schedulers".
type WaitStats struct {
	Jobs          int
	MeanWaitMin   float64
	MedianWaitMin float64
	MaxWaitMin    float64
	// By size class: small (1 node), medium (2-15), large (16+); NaN
	// for a class with no jobs.
	SmallMeanMin  float64
	MediumMeanMin float64
	LargeMeanMin  float64
}

// ComputeWaitStats derives wait statistics from accounting records.
func ComputeWaitStats(acct []AcctRecord) WaitStats {
	var all, small, medium, large []float64
	for _, r := range acct {
		w := float64(r.WaitSec()) / 60
		all = append(all, w)
		switch n := r.NodeCount(); {
		case n <= 1:
			small = append(small, w)
		case n < 16:
			medium = append(medium, w)
		default:
			large = append(large, w)
		}
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	st := WaitStats{Jobs: len(all)}
	if len(all) == 0 {
		st.MeanWaitMin, st.MedianWaitMin, st.MaxWaitMin = math.NaN(), math.NaN(), math.NaN()
		st.SmallMeanMin, st.MediumMeanMin, st.LargeMeanMin = math.NaN(), math.NaN(), math.NaN()
		return st
	}
	st.MeanWaitMin = mean(all)
	st.MedianWaitMin = stats.OrderStatOwned(all, len(all)/2)
	st.MaxWaitMin = stats.OrderStatOwned(all, len(all)-1)
	st.SmallMeanMin = mean(small)
	st.MediumMeanMin = mean(medium)
	st.LargeMeanMin = mean(large)
	return st
}
