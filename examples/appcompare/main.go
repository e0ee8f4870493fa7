// Appcompare reproduces the application-developer analysis of §4.3.2
// (Fig 3): profile the three molecular-dynamics codes on both clusters,
// quantify which are efficient where, and measure cross-cluster profile
// similarity — the evidence behind the paper's recommendation that
// centers steer users toward NAMD and match codes to architectures.
package main

import (
	"fmt"
	"log"
	"os"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/report"
	"supremm/internal/sim"
	"supremm/internal/store"
)

func buildRealm(cc cluster.Config, seed int64) *core.Realm {
	cfg := sim.DefaultConfig(cc, seed)
	cfg.DurationMin = 21 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return core.NewRealm(cc, res.Store.AsSet(), res.Series)
}

func main() {
	mdCodes := core.MDCodes()
	ranger := buildRealm(cluster.RangerConfig().Scaled(64), 3)
	ls4 := buildRealm(cluster.Lonestar4Config().Scaled(64), 3)

	// Fig 3: the six radar charts (3 codes x 2 clusters).
	if err := report.Fig3(os.Stdout, []*core.Realm{ranger, ls4}, mdCodes); err != nil {
		log.Fatal(err)
	}

	// The paper's reading of the charts, computed:
	fmt.Println("\n=== efficiency by code (cpu idle, normalized to fleet) ===")
	for _, r := range []*core.Realm{ranger, ls4} {
		for _, code := range mdCodes {
			p := r.AppProfile(code)
			fmt.Printf("  %-10s on %-10s idle %.2fx fleet  (%d jobs, %.0f node-hours)\n",
				code, r.Cluster, p.Normalized[store.MetricCPUIdle], p.N, p.NodeHours)
		}
	}

	fmt.Println("\n=== cross-cluster profile distance (lower = more similar) ===")
	for _, code := range mdCodes {
		d := core.ProfileDistance(ranger.AppProfile(code), ls4.AppProfile(code))
		fmt.Printf("  %-10s %.3f\n", code, d)
	}
	fmt.Println("\nThe paper's observations to check: AMBER idles more than NAMD")
	fmt.Println("and GROMACS on both machines; NAMD's profile is nearly the same")
	fmt.Println("on both clusters while GROMACS differs (it exploits Westmere).")
}
