// Operations demonstrates the forward-looking capabilities built on the
// paper's data: application-kernel audits (XDMoD's auditing half),
// persistence-based forecasting (the abstract's "limited predictive
// capability"), scheduling hints ("add high I/O jobs when I/O is
// relatively free", §4.3.4/§5), and queue-wait reporting across
// scheduling policies.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"supremm/internal/appkernels"
	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/sched"
	"supremm/internal/sim"
	"supremm/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run exercises the forward-looking capabilities and writes their
// reports to w.
func run(w io.Writer) error {
	var b bytes.Buffer
	cc := cluster.RangerConfig().Scaled(32)
	cfg := sim.DefaultConfig(cc, 23)
	cfg.DurationMin = 21 * 24 * 60
	cfg.Shutdowns = nil
	cfg.NodeMTBFHours = 0
	cfg.Gen.HorizonMin = cfg.DurationMin

	// Inject the application-kernel audit suite into the production mix.
	kernels := appkernels.DefaultKernels(workload.DefaultApps())
	production := workload.NewGenerator(cfg.Gen).Generate()
	cfg.Jobs = appkernels.Inject(production, kernels, cfg.DurationMin, 1_000_000, 23)

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	realm := core.NewRealm(cc, res.Store.AsSet(), res.Series)

	// 1. Application-kernel audit: is the system performing as usual?
	fmt.Fprintln(&b, "=== application kernel audit ===")
	for _, v := range appkernels.NewAuditor().AuditAll(realm.Store, kernels) {
		state := "OK"
		if v.Degraded {
			state = "DEGRADED"
		}
		fmt.Fprintf(&b, "  %-12s %2d runs  baseline %6.1f GF/s  recent %6.1f GF/s  (%+.1f%%)  %s\n",
			v.Kernel, v.Runs, v.BaselineMean, v.RecentMean, v.DeltaPct, state)
	}

	// 2. Forecasting: how predictable is the system right now?
	fmt.Fprintln(&b, "\n=== persistence forecasts (cpu_flops) ===")
	fc, err := realm.NewForecaster("cpu_flops")
	if err != nil {
		return err
	}
	for _, off := range []float64{10, 100, 1000} {
		ev, err := fc.Evaluate(off)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "  %5.0f min ahead: MAE %.3f TF vs climatology %.3f TF (skill %+.2f)\n",
			off, ev.MAE, ev.NaiveMAE, ev.Skill)
	}

	// 3. Scheduling hints: where is the headroom in the next hour?
	fmt.Fprintln(&b, "\n=== scheduling hints (60 min ahead) ===")
	for _, metric := range []string{"io_scratch_write", "net_ib_tx"} {
		h, err := realm.Hint(metric, 60)
		if err != nil {
			return err
		}
		verdict := "hold back"
		if h.Favorable {
			verdict = "good time to launch"
		}
		fmt.Fprintf(&b, "  %-18s now %8.1f  forecast %8.1f  typical %8.1f  headroom %+5.1f%%  -> %s heavy users of it\n",
			h.Metric, h.Current, h.ForecastMean, h.FleetMean, h.Headroom*100, verdict)
	}

	// 4. Queue health by policy (the scheduler-tuning report, §4.3.4).
	fmt.Fprintln(&b, "\n=== queue waits under each scheduling policy ===")
	for _, p := range []sched.Policy{sched.PolicyFIFO, sched.PolicyEASY, sched.PolicyComplementary} {
		pcfg := cfg
		pcfg.Jobs = nil // regenerate the same stream per run
		pcfg.Policy = p
		pres, err := sim.Run(pcfg)
		if err != nil {
			return err
		}
		ws := sched.ComputeWaitStats(pres.Acct)
		var busy float64
		for _, s := range pres.Series {
			busy += float64(s.BusyNodes)
		}
		util := busy / float64(len(pres.Series)) / 32 * 100
		fmt.Fprintf(&b, "  %-14s util %5.1f%%  mean wait %6.1f min  (small %5.1f / medium %5.1f / large %6.1f)\n",
			p, util, ws.MeanWaitMin, ws.SmallMeanMin, ws.MediumMeanMin, ws.LargeMeanMin)
	}
	_, err = w.Write(b.Bytes())
	return err
}
