// Stakeholders renders the full §4.3 report catalogue: one suite per
// stakeholder class (users, application developers, support staff,
// systems administrators, resource managers, funding agencies), across
// both simulated clusters — the paper's central claim of "meeting the
// information needs of all stakeholders" in one run.
package main

import (
	"fmt"
	"log"
	"os"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/sim"
)

func buildRealm(cc cluster.Config) *core.Realm {
	cfg := sim.DefaultConfig(cc, 2013)
	cfg.DurationMin = 14 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return core.NewRealm(cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB,
		cc.PeakTFlops(), res.Store.AsSet(), res.Series)
}

func main() {
	fmt.Fprintln(os.Stderr, "simulating two weeks on both clusters...")
	ranger := buildRealm(cluster.RangerConfig().Scaled(48))
	ls4 := buildRealm(cluster.Lonestar4Config().Scaled(48))

	for _, who := range report.Stakeholders() {
		if err := report.Suite(os.Stdout, who, ranger, ls4); err != nil {
			log.Fatalf("%s suite: %v", who, err)
		}
	}
	fmt.Println("\nAll six stakeholder suites rendered (paper sec 4.3.1-4.3.6).")
}
