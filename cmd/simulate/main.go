// Command simulate runs one cluster simulation and writes its artefacts
// to disk: raw TACC_Stats files (optional), the accounting log, the
// rationalized event log, Lariat summaries, and the data directory
// proper — jobs.jsonl, the system series, day shards + MANIFEST.supremm
// — through ingest.WriteDir, the landing sequence cmd/ingest uses. A
// simulation has no ingest quality report, so a quality.json an earlier
// ingest left in the directory is removed with the stale columnar
// backing. These are the inputs of cmd/ingest, cmd/xdmod and
// cmd/supremmd.
//
//	simulate -cluster ranger -nodes 64 -days 14 -out ./data -raw
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"supremm/internal/cluster"
	"supremm/internal/eventlog"
	"supremm/internal/ingest"
	"supremm/internal/lariat"
	"supremm/internal/sched"
	"supremm/internal/sim"
	"supremm/internal/store"
	"supremm/internal/workload"
)

func main() {
	var (
		clusterFl = flag.String("cluster", "ranger", "preset cluster (ranger|lonestar4|stampede)")
		nodes     = flag.Int("nodes", 64, "node count")
		days      = flag.Int("days", 14, "simulated days")
		seed      = flag.Int64("seed", 1, "simulation seed")
		out       = flag.String("out", "data", "output directory")
		raw       = flag.Bool("raw", false, "also write raw TACC_Stats files (slower)")
		swfOut    = flag.String("swf", "", "also export the job stream as an SWF trace file")
		traceIn   = flag.String("trace", "", "replay this SWF trace instead of generating a workload")
	)
	flag.Parse()
	if err := run(*clusterFl, *nodes, *days, *seed, *out, *raw, *swfOut, *traceIn); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(clusterName string, nodes, days int, seed int64, out string, raw bool, swfOut, traceIn string) error {
	cc, ok := cluster.Preset(clusterName)
	if !ok {
		return fmt.Errorf("unknown cluster %q", clusterName)
	}
	cc = cc.Scaled(nodes)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfg := sim.DefaultConfig(cc, seed)
	cfg.DurationMin = float64(days) * 24 * 60
	if raw {
		cfg.RawDir = filepath.Join(out, "raw")
	}
	if traceIn != "" {
		tf, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		jobs, err := workload.ReadSWF(tf, cc.CoresPerNode(), workload.DefaultApps(), seed)
		_ = tf.Close() // read-only file; nothing to lose on close
		if err != nil {
			return err
		}
		cfg.Jobs = jobs
		fmt.Fprintf(os.Stderr, "replaying %d jobs from %s\n", len(jobs), traceIn)
	}
	if swfOut != "" {
		stream := cfg.Jobs
		if stream == nil {
			gen := cfg.Gen
			gen.HorizonMin = cfg.DurationMin
			stream = workload.NewGenerator(gen).Generate()
			cfg.Jobs = stream
		}
		sf, err := os.Create(swfOut)
		if err != nil {
			return err
		}
		if err := workload.WriteSWF(sf, stream, cc.CoresPerNode()); err != nil {
			_ = sf.Close() // write error wins
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote SWF trace %s (%d jobs)\n", swfOut, len(stream))
	}
	fmt.Fprintf(os.Stderr, "simulating %s: %d nodes, %d days (raw=%v)...\n", cc.Name, nodes, days, raw)
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	for _, f := range []struct {
		name  string
		write func(*os.File) error
	}{
		{store.AccountingFile, func(f *os.File) error { return sched.WriteAcct(f, res.Acct) }},
		{"events.log", func(f *os.File) error { return eventlog.WriteEvents(f, res.Events) }},
		{"lariat.jsonl", func(f *os.File) error { return lariat.Write(f, res.Lariat) }},
	} {
		if err := store.AtomicWriteFile(out, f.name, f.write); err != nil {
			return fmt.Errorf("write %s: %w", f.name, err)
		}
	}
	// No quality report: an earlier ingest's quality.json goes.
	if err := ingest.WriteDir(out, res.Store, res.Series, nil); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d jobs, %d samples, %d events, %d acct records\n",
		out, res.Store.Len(), len(res.Series), len(res.Events), len(res.Acct))
	if raw {
		fmt.Fprintf(os.Stderr, "raw volume: %.1f MB (%d monitor samples)\n",
			float64(res.MonitorBytes)/1e6, res.MonitorSamples)
	}
	return nil
}
