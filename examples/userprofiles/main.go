// Userprofiles reproduces the support-staff workflow of §4.3.1/§4.3.3:
// profile the heavy users (Fig 2), find the inefficient outliers
// (Fig 4's circled users), inspect their profile (Fig 5), and check the
// Lariat record that explains *why* they idle (undersubscribed ranks).
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/lariat"
	"supremm/internal/report"
	"supremm/internal/sim"
	"supremm/internal/store"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks the support-staff workflow and writes what it finds to w.
func run(w io.Writer) error {
	var b bytes.Buffer
	cc := cluster.RangerConfig().Scaled(64)
	cfg := sim.DefaultConfig(cc, 11)
	cfg.DurationMin = 21 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	realm := core.NewRealm(cc, res.Store.AsSet(), res.Series)

	// Fig 2: the five heaviest users, normalized to the fleet mean.
	fmt.Fprintln(&b, "=== the five heaviest users (Fig 2) ===")
	for _, p := range realm.TopUserProfiles(5) {
		report.Radar(&b, p)
	}

	// Fig 4: who is wasting node-hours?
	eff := realm.FleetEfficiency()
	fmt.Fprintf(&b, "\n=== efficiency (Fig 4): fleet %.0f%% ===\n", eff*100)
	worst := realm.WorstUsers(3, 50)
	for _, u := range worst {
		fmt.Fprintf(&b, "  %s: %.0f node-hours, %.0f wasted (%.0f%% idle, %d jobs)\n",
			u.User, u.NodeHours, u.WastedNodeHours, u.IdleFrac*100, u.Jobs)
	}
	if len(worst) == 0 {
		_, err := w.Write(b.Bytes())
		return err
	}

	// Fig 5: the circled user's profile — high idle, everything else
	// unremarkable.
	fmt.Fprintln(&b, "\n=== the circled user (Fig 5) ===")
	report.Radar(&b, realm.UserProfile(worst[0].User))

	// The Lariat evidence: their jobs run far fewer MPI ranks than the
	// nodes have cores.
	byJob := lariat.ByJob(res.Lariat)
	fmt.Fprintln(&b, "\n=== Lariat records for that user's jobs ===")
	shown := 0
	for _, rec := range realm.Store.Scan(store.Filter{User: worst[0].User, MinSamples: 1}).Records() {
		lr, ok := byJob[rec.JobID]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  job %d: exe %s, %d ranks on %d nodes (%d cores available)\n",
			rec.JobID, lr.Executable, lr.MPIRanks, rec.Nodes, rec.Nodes*cc.CoresPerNode())
		shown++
		if shown >= 5 {
			break
		}
	}
	_, err = w.Write(b.Bytes())
	return err
}
