// Pipeline demonstrates the full-fidelity data path of the paper's
// Fig 1: run a cluster in raw mode (real TACC_Stats text files per node
// per day), then ingest those files by joining counter deltas with the
// accounting log, and verify the ETL output against the simulator's own
// records. It also exercises the rationalized syslog and the ANCOR-style
// anomaly linkage.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"supremm/internal/anomaly"
	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/eventlog"
	"supremm/internal/ingest"
	"supremm/internal/sim"
	"supremm/internal/store"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the data path end to end and writes what it checks to w.
func run(w io.Writer) error {
	var b bytes.Buffer
	rawDir, err := os.MkdirTemp("", "supremm-raw-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rawDir)

	// 1. Simulate 12 Ranger nodes for 3 days in raw mode.
	cc := cluster.RangerConfig().Scaled(12)
	cfg := sim.DefaultConfig(cc, 99)
	cfg.DurationMin = 3 * 24 * 60
	cfg.Gen.UtilizationTarget = 2 // keep the little machine packed
	cfg.RawDir = rawDir
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "simulated: %d jobs, %.1f MB of raw TACC_Stats data (%d samples)\n",
		res.Store.Len(), float64(res.MonitorBytes)/1e6, res.MonitorSamples)
	// Per-node-per-day volume, the paper's 0.5 MB yardstick (§4.1).
	fmt.Fprintf(&b, "raw volume: %.2f MB per node per day (paper: ~0.5 MB on Ranger)\n",
		float64(res.MonitorBytes)/1e6/12/3)

	// Show a flavour of the raw format.
	hosts, _ := os.ReadDir(rawDir)
	if len(hosts) > 0 {
		days, _ := os.ReadDir(filepath.Join(rawDir, hosts[0].Name()))
		if len(days) > 0 {
			raw, _ := os.ReadFile(filepath.Join(rawDir, hosts[0].Name(), days[0].Name()))
			fmt.Fprintf(&b, "\nfirst lines of %s/%s:\n", hosts[0].Name(), days[0].Name())
			end := 0
			lines := 0
			for ; end < len(raw) && lines < 6; end++ {
				if raw[end] == '\n' {
					lines++
				}
			}
			b.Write(raw[:end])
		}
	}

	// 2. Ingest the raw directory against the accounting log — the ETL
	//    stage the deployed system runs on the Netezza appliance.
	rr, err := ingest.IngestRawOpts(rawDir, res.Acct, ingest.Options{Policy: ingest.Strict})
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "\ningested: %d job records, %d series samples, %d unattributed intervals\n",
		rr.Store.Len(), len(rr.Series), rr.Unattributed)

	// 3. Verify the ETL against the simulator's direct records.
	byID := map[int64]store.JobRecord{}
	for i := 0; i < res.Store.Len(); i++ {
		r := res.Store.Record(i)
		byID[r.JobID] = r
	}
	var worst float64
	compared := 0
	for i := 0; i < rr.Store.Len(); i++ {
		raw := rr.Store.Record(i)
		direct, ok := byID[raw.JobID]
		if !ok || direct.Samples < 12 {
			continue
		}
		if direct.CPUIdleFrac > 0 {
			relErr := math.Abs(raw.CPUIdleFrac-direct.CPUIdleFrac) / direct.CPUIdleFrac
			if relErr > worst {
				worst = relErr
			}
		}
		compared++
	}
	fmt.Fprintf(&b, "ETL check: %d jobs compared, worst cpu_idle relative error %.1f%%\n",
		compared, worst*100)

	// 4. The rationalized log + anomaly linkage (§4.3.4).
	crit := 0
	for _, ev := range res.Events {
		if ev.Severity >= eventlog.Error {
			crit++
		}
	}
	fmt.Fprintf(&b, "\nrationalized log: %d events (%d error+), e.g.:\n", len(res.Events), crit)
	for i, ev := range res.Events {
		if i >= 3 {
			break
		}
		fmt.Fprintln(&b, " ", ev.String())
	}
	realm := core.NewRealm(cc, rr.Store.AsSet(), rr.Series)
	found := anomaly.NewDetector().Detect(realm.Store, realm.JobFilter(),
		[]store.Metric{store.MetricCPUIdle, store.MetricMemUsedMax})
	diags := anomaly.Link(found, res.Events)
	fmt.Fprintf(&b, "\nANCOR linkage: %d anomalous jobs diagnosed\n", len(diags))
	for i, d := range diags {
		if i >= 3 {
			break
		}
		fmt.Fprintln(&b, " ", d.String())
	}
	_, err = w.Write(b.Bytes())
	return err
}
