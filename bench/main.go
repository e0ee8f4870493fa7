// Command bench is the repository's one benchmark: it drives the built
// simulate, ingest and supremmd binaries over seeded fixtures (raw
// taccstats -> day shards -> HTTP answers), checks every answer against
// a naive reference, and reports the end-to-end metrics of
// BENCHMARK.json or, with -trace 1, the per-layer ones. See README.md.
//
//	go run -C bench . -workload query-hot -seed 11 -seconds 16 -trace 0
//	go run -C bench .                     # every workload, both metric sets
//	go run -C bench . record -out results/x.json
//	go run -C bench . compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		case "spec":
			out, err := renderBenchmarkFile()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(out)
			return
		}
	}
	var (
		workload = flag.String("workload", "", "workload to run; empty runs every workload with both metric sets")
		seed     = flag.Int64("seed", 11, "seed of every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed part of a run measures")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer ones and writes out/trace-<workload>.json")
	)
	flag.Parse()
	if *workload == "" {
		if err := record("", 1, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if !knownWorkload(*workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unknown workload, or bad -seconds or -trace")
		os.Exit(2)
	}
	p, err := findPaths()
	if err != nil {
		fatal(err)
	}
	buildTime, err := buildBinaries(p)
	if err != nil {
		fatal(err)
	}
	res, info, err := runOne(p, buildTime, *workload, *seed, *seconds, *trace == 1, fullScale)
	if err != nil {
		fatal(err)
	}
	infoLine, err := json.Marshal(info)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("info %s\n", infoLine)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo travels beside the result (the `info` line, and every entry of
// a recorded file): where and how the numbers were taken, and whether
// the machine was steady while they were.
type runInfo struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	// SpinBeforeMS and SpinAfterMS time the same fixed CPU loop before
	// set-up and after tear-down, and StealShare is the part of the
	// run's CPU time the hypervisor gave to other guests; Noisy is set
	// when the spins differ by more than a tenth or more than a
	// twentieth was stolen.
	SpinBeforeMS float64   `json:"spin_before_ms"`
	SpinAfterMS  float64   `json:"spin_after_ms"`
	StealShare   float64   `json:"steal_share"`
	Noisy        bool      `json:"noisy"`
	SetupS       []float64 `json:"setup_s"`
	Errors       []string  `json:"errors,omitempty"`
}

// runOne is one driver-style invocation over already built binaries.
func runOne(p paths, buildTime time.Duration, workload string, seed int64, seconds float64, trace bool, sc scale) (*result, *runInfo, error) {
	info := &runInfo{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Env: readEnvironment(p)}
	work, err := os.MkdirTemp(p.out, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	rc := &runCtx{p: p, work: work, seed: seed, seconds: seconds, sc: sc, trace: trace}

	info.SpinBeforeMS = spinMS(sc.spinIters)
	steal0, ticks0 := stealTicks()
	metrics := map[string]float64{}
	var pass *passResult
	if !trace {
		if pass, err = runWorkload(rc, workload); err != nil {
			return nil, nil, err
		}
		metrics = pass.e2e
	} else {
		// The traced run: every layer timed from outside on fresh
		// fixtures, a shortened pass of the workload itself for the
		// figures only the running daemon can give, and the replay that
		// records spans.
		t0 := time.Now()
		layers, state, err := runLayerSuite(rc)
		if err != nil {
			return nil, nil, fmt.Errorf("layer suite: %w", err)
		}
		phase("layer suite", &t0)
		rc.seconds, rc.sc = seconds/3, sc.forTrace()
		if pass, err = runWorkload(rc, workload); err != nil {
			return nil, nil, err
		}
		phase("workload pass", &t0)
		tr, err := runTracedReplay(rc, workload, state)
		if err != nil {
			return nil, nil, fmt.Errorf("traced replay: %w", err)
		}
		phase("traced replay", &t0)
		for _, part := range []map[string]float64{layers, pass.layer, tr} {
			for k, v := range part {
				metrics[k] = v
			}
		}
		metrics["supremmd.http_stack_us"] = metrics["supremmd.cpu_us_per_hit"] - metrics["serve.handler_hit_us"]
		metrics["bench.build_s"] = buildTime.Seconds()
	}
	info.SpinAfterMS = spinMS(sc.spinIters)
	if steal1, ticks1 := stealTicks(); ticks1 > ticks0 {
		info.StealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}
	info.Noisy = info.SpinAfterMS > 1.1*info.SpinBeforeMS || info.SpinBeforeMS > 1.1*info.SpinAfterMS || info.StealShare > 0.05
	info.SetupS = pass.setupS
	if trace {
		metrics["machine.spin_ms"] = (info.SpinBeforeMS + info.SpinAfterMS) / 2
	}
	for _, e := range pass.errs {
		info.Errors = append(info.Errors, e.Error())
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}

	want := endToEnd
	if trace {
		want = perLayer
	}
	res := &result{Correct: pass.failed == 0, Attempted: pass.attempted, Failed: pass.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := metrics[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, info, nil
}

// phase logs how long a part of the run took and restarts the clock.
func phase(name string, t0 *time.Time) {
	fmt.Fprintf(os.Stderr, "bench: %s took %.1f s\n", name, time.Since(*t0).Seconds())
	*t0 = time.Now()
}

// writeJSONFile writes v indented under the benchmark's out directory or
// at an explicit path.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spinMS times a fixed CPU loop (the fastest of three goes): the same
// work before and after a run says whether the machine changed speed
// underneath it.
func spinMS(iters int) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < iters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return ms(best)
}

var spinSink uint64
