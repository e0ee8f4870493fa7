// Userprofiles reproduces the support-staff workflow of §4.3.1/§4.3.3:
// profile the heavy users (Fig 2), find the inefficient outliers
// (Fig 4's circled users), inspect their profile (Fig 5), and check the
// Lariat record that explains *why* they idle (undersubscribed ranks).
package main

import (
	"fmt"
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
	cc := cluster.RangerConfig().Scaled(64)
	cfg := sim.DefaultConfig(cc, 11)
	cfg.DurationMin = 21 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	realm := core.NewRealm(cc, res.Store.AsSet(), res.Series)

	// Fig 2: the five heaviest users, normalized to the fleet mean.
	fmt.Println("=== the five heaviest users (Fig 2) ===")
	for _, p := range realm.TopUserProfiles(5) {
		if err := report.Radar(os.Stdout, p); err != nil {
			log.Fatal(err)
		}
	}

	// Fig 4: who is wasting node-hours?
	eff := realm.FleetEfficiency()
	fmt.Printf("\n=== efficiency (Fig 4): fleet %.0f%% ===\n", eff*100)
	worst := realm.WorstUsers(3, 50)
	for _, u := range worst {
		fmt.Printf("  %s: %.0f node-hours, %.0f wasted (%.0f%% idle, %d jobs)\n",
			u.User, u.NodeHours, u.WastedNodeHours, u.IdleFrac*100, u.Jobs)
	}
	if len(worst) == 0 {
		return
	}

	// Fig 5: the circled user's profile — high idle, everything else
	// unremarkable.
	fmt.Println("\n=== the circled user (Fig 5) ===")
	if err := report.Radar(os.Stdout, realm.UserProfile(worst[0].User)); err != nil {
		log.Fatal(err)
	}

	// The Lariat evidence: their jobs run far fewer MPI ranks than the
	// nodes have cores.
	byJob := lariat.ByJob(res.Lariat)
	fmt.Println("\n=== Lariat records for that user's jobs ===")
	shown := 0
	for _, rec := range realm.Store.Scan(store.Filter{User: worst[0].User, MinSamples: 1}).Records() {
		lr, ok := byJob[rec.JobID]
		if !ok {
			continue
		}
		fmt.Printf("  job %d: exe %s, %d ranks on %d nodes (%d cores available)\n",
			rec.JobID, lr.Executable, lr.MPIRanks, rec.Nodes, rec.Nodes*cc.CoresPerNode())
		shown++
		if shown >= 5 {
			break
		}
	}
}
