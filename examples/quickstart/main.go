// Quickstart: simulate a small Ranger-like cluster for a week, build an
// analytics realm, and print the headline numbers every stakeholder
// report builds on — the five-minute tour of the public API.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/sim"
	"supremm/internal/store"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run takes the tour, writing what it finds to w.
func run(w io.Writer) error {
	var b bytes.Buffer
	// 1. Describe the machine: a 32-node slice of Ranger (same 16-core
	//    32 GB nodes, Lustre mounts and InfiniBand as the real system).
	cc := cluster.RangerConfig().Scaled(32)

	// 2. Run a week of synthetic production: jobs are generated from a
	//    200-user population over an application catalogue patterned on
	//    the TACC mix, scheduled with EASY backfill, and measured every
	//    10 minutes exactly as TACC_Stats would.
	cfg := sim.DefaultConfig(cc, 7)
	cfg.DurationMin = 7 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "simulated %d jobs (%d completed), %d monitor intervals, %d log events\n\n",
		res.JobsSubmitted, res.JobsCompleted, len(res.Series), len(res.Events))

	// 3. Build the analytics realm (the XDMoD view of the data).
	realm := core.NewRealm(cc, res.Store.AsSet(), res.Series)

	// 4. Ask it questions.
	fmt.Fprintf(&b, "jobs analyzed (longer than one sampling interval): %d\n", realm.JobCount())
	fmt.Fprintf(&b, "node-hours consumed: %.0f\n", realm.TotalNodeHours())
	fmt.Fprintf(&b, "fleet efficiency (1 - weighted cpu idle): %.1f%%\n", realm.FleetEfficiency()*100)

	flops := realm.FlopsReport()
	fmt.Fprintf(&b, "delivered FLOPS: mean %.2f TF of %.0f TF peak (%.1f%%)\n",
		flops.MeanTFlops, flops.MachinePeakTF, flops.MeanFraction*100)

	mem := realm.MemoryReport()
	fmt.Fprintf(&b, "memory per node: mean %.1f GB of %.0f GB (%.0f%%)\n\n",
		mem.MeanGB, mem.CapacityGB, mem.MeanFraction*100)

	// 5. Render one real report: the heaviest user's normalized profile
	//    (a Fig 2 radar chart in text form).
	heavy := realm.TopUserProfiles(1)[0]
	report.Radar(&b, heavy)

	// 6. The same store answers ad-hoc queries directly.
	agg := realm.Store.Aggregate(store.MetricCPUIdle, store.Filter{App: "amber", MinSamples: 1})
	fmt.Fprintf(&b, "\nAMBER jobs: %d, node-hour-weighted idle %.1f%%\n", agg.N, agg.Mean*100)
	_, err = w.Write(b.Bytes())
	return err
}
