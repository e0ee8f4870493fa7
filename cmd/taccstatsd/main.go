// Command taccstatsd demonstrates the monitor agent in isolation: it
// runs a single simulated node executing one job, its counters moved by
// the same usage mapping as every node of cmd/simulate
// (sim.ApplyUsage), and writes the raw TACC_Stats format to stdout (or
// a file) in accelerated time — the §3 data-collection story without
// the rest of the pipeline.
//
//	taccstatsd -job 12345 -samples 12 -cluster ranger
//
// For fault-model testing, -truncate-at N simulates the node crashing
// after N raw bytes: the output file ends mid-record, exactly as a
// power loss leaves it, and the daemon exits reporting the crash.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/sim"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

func main() {
	var (
		clusterFl  = flag.String("cluster", "ranger", "preset cluster (ranger|lonestar4|stampede)")
		app        = flag.String("app", "namd", "application archetype")
		jobID      = flag.Int64("job", 12345, "job id for the begin/end marks")
		samples    = flag.Int("samples", 12, "periodic samples between job begin and end")
		out        = flag.String("out", "-", "output file ('-' for stdout)")
		seed       = flag.Int64("seed", 42, "job behaviour seed")
		truncateAt = flag.Int64("truncate-at", 0, "simulate a crash after writing this many bytes (0 = never)")
		retries    = flag.Int("write-retries", 2, "retries for transient write failures")
	)
	flag.Parse()
	if err := run(*clusterFl, *app, *jobID, *samples, *out, *seed, *truncateAt, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "taccstatsd:", err)
		os.Exit(1)
	}
}

// errCrashed marks the deliberate mid-write stop -truncate-at triggers.
var errCrashed = errors.New("simulated crash: write limit reached")

// isTransient reports whether err declares itself Temporary(), the
// stdlib convention for retryable I/O failures.
func isTransient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// retrySink wraps a sink so transient write failures are retried with
// backoff instead of killing the daemon, while persistent write and
// close errors propagate to the caller — a monitor must neither die on
// a momentarily overloaded filesystem nor silently drop data.
type retrySink struct {
	w       io.WriteCloser
	retries int
	backoff func(attempt int)
}

func (s *retrySink) Write(p []byte) (int, error) {
	written := 0
	for attempt := 0; ; attempt++ {
		n, err := s.w.Write(p[written:])
		written += n
		if err == nil {
			return written, nil
		}
		if !isTransient(err) || attempt >= s.retries {
			return written, err
		}
		if s.backoff != nil {
			s.backoff(attempt + 1)
		}
	}
}

func (s *retrySink) Close() error { return s.w.Close() }

// crashWriter stops the node after limit bytes: the write that crosses
// the limit is cut short and errCrashed is returned, leaving the file
// truncated mid-line like a real crash mid-write.
type crashWriter struct {
	w         io.WriteCloser
	remaining int64
}

func (c *crashWriter) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errCrashed
	}
	if int64(len(p)) <= c.remaining {
		c.remaining -= int64(len(p))
		return c.w.Write(p)
	}
	n, err := c.w.Write(p[:c.remaining])
	c.remaining = 0
	if err != nil {
		return n, err
	}
	return n, errCrashed
}

func (c *crashWriter) Close() error { return c.w.Close() }

// keepOpen lets stdout ride the WriteCloser plumbing without being
// closed out from under the process.
type keepOpen struct{ io.Writer }

func (keepOpen) Close() error { return nil }

func run(clusterName, appName string, jobID int64, samples int, out string, seed, truncateAt int64, retries int) error {
	cc, ok := cluster.Preset(clusterName)
	if !ok {
		return fmt.Errorf("unknown cluster %q", clusterName)
	}
	apps := workload.DefaultApps()
	a := workload.AppByName(apps, appName)
	if a == nil {
		return fmt.Errorf("unknown app %q", appName)
	}

	backoff := func(attempt int) { time.Sleep(time.Duration(attempt) * 50 * time.Millisecond) }
	var crash *crashWriter
	rotations := 0
	// Each rotation opens a fresh sink (re-using a closed handle across
	// day boundaries would silently drop everything after day one); the
	// crash budget, when set, spans all of them like a node's lifetime.
	rotate := func(day int) (io.WriteCloser, error) {
		var sink io.WriteCloser
		if out == "-" {
			sink = keepOpen{os.Stdout}
		} else {
			name := out
			if rotations > 0 {
				name = fmt.Sprintf("%s.%d", out, day)
			}
			f, err := os.Create(name)
			if err != nil {
				return nil, err
			}
			sink = f
		}
		rotations++
		if truncateAt > 0 {
			if crash == nil {
				crash = &crashWriter{w: sink, remaining: truncateAt}
			} else {
				crash.w = sink
			}
			sink = crash
		}
		return &retrySink{w: sink, retries: retries, backoff: backoff}, nil
	}

	cfg := sim.DefaultConfig(cc, seed)
	snap := procfs.NewNodeSnapshot(cc, "c000-000."+cc.Name)
	snap.Time = cfg.EpochUnix
	mon := taccstats.NewMonitor(snap, rotate)
	b := workload.NewBehavior(demoJob(a, jobID, samples, cfg), cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB)

	err := func() error {
		if err := mon.BeginJob(jobID); err != nil {
			return err
		}
		for i := 0; i < samples; i++ {
			sim.ApplyUsage(snap, b.Step(cfg.StepMin), cfg.StepMin)
			snap.Time += int64(cfg.StepMin * 60)
			if err := mon.Sample(); err != nil {
				return err
			}
		}
		return mon.EndJob(jobID)
	}()
	if errors.Is(err, errCrashed) {
		// The crash is the requested artifact, not a failure: the file
		// on disk is now a faithfully truncated raw file.
		_ = mon.Close() // a crashed node never closes cleanly
		fmt.Fprintf(os.Stderr, "taccstatsd: simulated crash after %d bytes (%d samples written)\n",
			truncateAt, mon.Samples())
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "taccstatsd: wrote %d samples, %d bytes\n", mon.Samples(), mon.TotalBytes())
	return mon.Close()
}

// demoJob is the one job the demo node runs: samples sampling
// intervals of cfg's cadence long, with cfg.Seed driving its behaviour.
func demoJob(a *workload.App, jobID int64, samples int, cfg sim.Config) *workload.Job {
	return &workload.Job{
		ID: jobID, User: &workload.User{Name: "demo", Science: workload.Physics},
		App: a, Nodes: 1, RuntimeMin: float64(samples) * cfg.StepMin,
		IdleMul: 1, FlopsMul: 1, MemMul: 1, IOMul: 1, NetMul: 1, Seed: cfg.Seed,
	}
}
