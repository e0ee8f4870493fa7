// Stakeholders renders the full §4.3 report catalogue: one suite per
// stakeholder class (users, application developers, support staff,
// systems administrators, resource managers, funding agencies), across
// both simulated clusters — the paper's central claim of "meeting the
// information needs of all stakeholders" in one run.
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
)

func buildRealm(cc cluster.Config) (*core.Realm, error) {
	cfg := sim.DefaultConfig(cc, 2013)
	cfg.DurationMin = 14 * 24 * 60
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

// run renders every suite over both clusters and writes them to w.
func run(w io.Writer) error {
	fmt.Fprintln(os.Stderr, "simulating two weeks on both clusters...")
	ranger, err := buildRealm(cluster.RangerConfig().Scaled(48))
	if err != nil {
		return err
	}
	ls4, err := buildRealm(cluster.Lonestar4Config().Scaled(48))
	if err != nil {
		return err
	}
	var b bytes.Buffer
	for _, who := range report.Stakeholders() {
		if err := report.SuiteWithQuality(&b, who, nil, ranger, ls4); err != nil {
			return fmt.Errorf("%s suite: %w", who, err)
		}
	}
	b.WriteString("\nAll six stakeholder suites rendered (paper sec 4.3.1-4.3.6).\n")
	_, err = w.Write(b.Bytes())
	return err
}
