// Appcompare reproduces the application-developer analysis of §4.3.2
// (Fig 3): profile the three molecular-dynamics codes on both clusters,
// quantify which are efficient where, and measure cross-cluster profile
// similarity — the evidence behind the paper's recommendation that
// centers steer users toward NAMD and match codes to architectures.
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

func buildRealm(cc cluster.Config, seed int64) (*core.Realm, error) {
	cfg := sim.DefaultConfig(cc, seed)
	cfg.DurationMin = 21 * 24 * 60
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewRealm(cc, res.Store.AsSet(), res.Series), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares the MD codes across both clusters and writes the
// comparison to w.
func run(w io.Writer) error {
	mdCodes := core.MDCodes()
	ranger, err := buildRealm(cluster.RangerConfig().Scaled(64), 3)
	if err != nil {
		return err
	}
	ls4, err := buildRealm(cluster.Lonestar4Config().Scaled(64), 3)
	if err != nil {
		return err
	}

	// Fig 3: the six radar charts (3 codes x 2 clusters).
	var b bytes.Buffer
	report.Fig3(&b, []*core.Realm{ranger, ls4}, mdCodes)

	// The paper's reading of the charts, computed:
	b.WriteString("\n=== efficiency by code (cpu idle, normalized to fleet) ===\n")
	for _, r := range []*core.Realm{ranger, ls4} {
		for _, code := range mdCodes {
			p := r.AppProfile(code)
			fmt.Fprintf(&b, "  %-10s on %-10s idle %.2fx fleet  (%d jobs, %.0f node-hours)\n",
				code, r.Cluster, p.Normalized[store.MetricCPUIdle], p.N, p.NodeHours)
		}
	}

	b.WriteString("\n=== cross-cluster profile distance (lower = more similar) ===\n")
	for _, code := range mdCodes {
		d := core.ProfileDistance(ranger.AppProfile(code), ls4.AppProfile(code))
		fmt.Fprintf(&b, "  %-10s %.3f\n", code, d)
	}
	b.WriteString("\nThe paper's observations to check: AMBER idles more than NAMD\n")
	b.WriteString("and GROMACS on both machines; NAMD's profile is nearly the same\n")
	b.WriteString("on both clusters while GROMACS differs (it exploits Westmere).\n")
	_, err = w.Write(b.Bytes())
	return err
}
