// Package appkernels reproduces the other half of XDMoD the paper
// builds on (its reference [2], Furlani et al.): application kernels —
// small, fixed benchmark jobs injected into the batch queue at a regular
// cadence whose measured performance audits the system over time.
// A performance regression in a kernel's series (after a software-stack
// update, a filesystem degradation, a fabric fault) is flagged by a
// control-band test against the kernel's own baseline.
package appkernels

import (
	"fmt"
	"math"
	"sort"

	"supremm/internal/stats"
	"supremm/internal/store"
	"supremm/internal/workload"
)

// KernelUser is the synthetic account kernels run under; analyses key
// on it to separate audit jobs from the production mix.
const KernelUser = "appkernel"

// Kernel is one benchmark definition.
type Kernel struct {
	// Name identifies the kernel; it is stored in the job's App field.
	Name string
	// App is the archetype whose behaviour the kernel exercises.
	App *workload.App
	// Nodes is the fixed job size (kernels always run the same shape so
	// runs are comparable).
	Nodes int
	// RuntimeMin is the fixed kernel runtime.
	RuntimeMin float64
	// PeriodMin is the injection cadence.
	PeriodMin float64
}

// DefaultKernels returns the audit set: a compute-bound, a
// memory/IO-bound and a network-bound kernel, mirroring the XDMoD
// application-kernel suite's coverage dimensions.
func DefaultKernels(apps []*workload.App) []Kernel {
	get := func(name string) *workload.App { return workload.AppByName(apps, name) }
	return []Kernel{
		{Name: "ak.compute", App: get("milc"), Nodes: 4, RuntimeMin: 60, PeriodMin: 12 * 60},
		{Name: "ak.io", App: get("enzo"), Nodes: 2, RuntimeMin: 60, PeriodMin: 12 * 60},
		{Name: "ak.network", App: get("namd"), Nodes: 4, RuntimeMin: 60, PeriodMin: 12 * 60},
	}
}

// kernelUserRecord is the shared synthetic user.
var kernelUserRecord = &workload.User{
	ID: 100000, Name: KernelUser, Science: workload.OtherScience,
	IdleMul: 1, ScaleMul: 1,
}

// Inject merges periodic kernel submissions into a production job
// stream. IDs are allocated from baseID upward; the combined stream is
// returned sorted by submit time. Kernels carry unit multipliers so
// run-to-run variation reflects only the (simulated) system, which is
// exactly what makes them audits.
func Inject(jobs []*workload.Job, kernels []Kernel, horizonMin float64, baseID int64, seed int64) []*workload.Job {
	out := append([]*workload.Job(nil), jobs...)
	id := baseID
	for ki, k := range kernels {
		if k.App == nil {
			continue
		}
		// Stagger kernels so they do not contend with each other.
		for t := float64(ki+1) * 30; t < horizonMin; t += k.PeriodMin {
			out = append(out, &workload.Job{
				ID: id, User: kernelUserRecord, App: kernelApp(k),
				Nodes: k.Nodes, SubmitMin: t, RuntimeMin: k.RuntimeMin,
				ReqMin: k.RuntimeMin * 1.2, Status: workload.Completed,
				IdleMul: 1, FlopsMul: 1, MemMul: 1, IOMul: 1, NetMul: 1,
				Seed: seed ^ id*7919,
			})
			id++
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SubmitMin < out[j].SubmitMin })
	return out
}

// kernelApp clones the archetype under the kernel's name so records
// group by kernel, not by the underlying code.
func kernelApp(k Kernel) *workload.App {
	clone := *k.App
	clone.Name = k.Name
	return &clone
}

// RunPoint is one kernel execution's audited performance.
type RunPoint struct {
	JobID   int64
	End     int64 // unix seconds
	FlopsGF float64
	IBTxMB  float64
	ReadMB  float64
}

// Series extracts a kernel's run history from the job store, ordered by
// end time.
func Series(st store.Reader, kernelName string) []RunPoint {
	recs := st.Scan(store.Filter{User: KernelUser, App: kernelName, MinSamples: 1}).Records()
	out := make([]RunPoint, 0, len(recs))
	for _, r := range recs {
		out = append(out, RunPoint{
			JobID: r.JobID, End: r.End,
			FlopsGF: r.FlopsGF, IBTxMB: r.IBTxMB, ReadMB: r.ReadMB,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

// Verdict is the audit outcome for one kernel.
type Verdict struct {
	Kernel string
	Runs   int
	// BaselineMean/SD summarize the first half of the history.
	BaselineMean float64
	BaselineSD   float64
	// RecentMean summarizes the last Window runs.
	RecentMean float64
	// Degraded is set when the recent mean falls below the control band
	// (baseline mean - Sigmas * sd).
	Degraded bool
	// DeltaPct is (recent-baseline)/baseline*100.
	DeltaPct float64
}

// Auditor configures the control-band regression test.
type Auditor struct {
	// Window is how many trailing runs form the "recent" sample.
	Window int
	// Sigmas is the control-band width.
	Sigmas float64
	// MinRuns is the minimum history length to judge at all.
	MinRuns int
}

// NewAuditor returns the default audit configuration.
func NewAuditor() *Auditor { return &Auditor{Window: 5, Sigmas: 2, MinRuns: 10} }

// Audit applies the control-band test to one kernel's flops history.
func (a *Auditor) Audit(kernelName string, runs []RunPoint) (Verdict, error) {
	v := Verdict{Kernel: kernelName, Runs: len(runs)}
	if len(runs) < a.MinRuns {
		return v, fmt.Errorf("appkernels: %s has %d runs, need %d", kernelName, len(runs), a.MinRuns)
	}
	half := len(runs) / 2
	baseline := make([]float64, half)
	for i := 0; i < half; i++ {
		baseline[i] = runs[i].FlopsGF
	}
	w := a.Window
	if w > len(runs)-half {
		w = len(runs) - half
	}
	recent := make([]float64, 0, w)
	for _, r := range runs[len(runs)-w:] {
		recent = append(recent, r.FlopsGF)
	}
	v.BaselineMean = stats.Mean(baseline)
	v.BaselineSD = stats.StdDev(baseline)
	v.RecentMean = stats.Mean(recent)
	if v.BaselineMean != 0 {
		v.DeltaPct = (v.RecentMean - v.BaselineMean) / v.BaselineMean * 100
	}
	band := v.BaselineMean - a.Sigmas*v.BaselineSD
	v.Degraded = v.RecentMean < band && !math.IsNaN(band)
	return v, nil
}

// AuditAll audits every kernel present in the store.
func (a *Auditor) AuditAll(st store.Reader, kernels []Kernel) []Verdict {
	var out []Verdict
	for _, k := range kernels {
		runs := Series(st, k.Name)
		if v, err := a.Audit(k.Name, runs); err == nil {
			out = append(out, v)
		}
	}
	return out
}
