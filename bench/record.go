package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// A recorded file is append-only: every `bench record` adds one set to
// it, so one file can hold a trajectory, and a baseline holds the two
// sets whose agreement shows the benchmark is steady.

type recordFile struct {
	Sets []recordSet `json:"sets"`
}

type recordSet struct {
	Started string        `json:"started"`
	Runs    []recordedRun `json:"runs"`
}

type recordedRun struct {
	Info   runInfo `json:"info"`
	Result result  `json:"result"`
}

func loadRecordFile(path string) (*recordFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f recordFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// recordMain runs every workload over several seeds, each run in a
// fresh process exactly as the driver starts it, plus one traced run of
// each, appends them to the file as one set, and prints every metric by
// name with its unit.
func recordMain(args []string) int {
	fl := flag.NewFlagSet("record", flag.ExitOnError)
	out := fl.String("out", "", "file to append the set to (default out/result.json)")
	seeds := fl.Int("seeds", 10, "end-to-end runs per workload, on seeds seed, seed+1, ...")
	seed := fl.Int64("seed", 11, "first seed")
	seconds := fl.Float64("seconds", runSeconds, "length of each timed part")
	_ = fl.Parse(args) // ExitOnError
	if err := record(*out, *seeds, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func record(out string, seeds int, seed int64, seconds float64) error {
	p, err := findPaths()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(p.out, "result.json")
	}
	file, err := loadRecordFile(out)
	if errors.Is(err, fs.ErrNotExist) {
		file = &recordFile{}
	} else if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := recordSet{Started: time.Now().UTC().Format(time.RFC3339)}
	wrong := false
	// Workloads are interleaved seed by seed, so drift of the machine
	// over the set falls on all of them alike. The traced runs come last,
	// on the first seed.
	for i := 0; i <= seeds; i++ {
		trace, runSeed := i == seeds, seed+int64(i)
		if trace {
			runSeed = seed
		}
		for _, w := range workloads {
			run, err := runChildBench(self, w.Name, runSeed, seconds, trace)
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, *run)
			wrong = wrong || !run.Result.Correct
		}
	}
	file.Sets = append(file.Sets, set)
	if err := writeJSONFile(out, file); err != nil {
		return err
	}
	printSet(&set)
	fmt.Printf("recorded set %d of %s\n", len(file.Sets)-1, out)
	if wrong {
		return errors.New("at least one run reported wrong or failed operations")
	}
	return nil
}

// runChildBench starts this binary the way the driver does and parses
// its info line and its last line.
func runChildBench(self, workload string, seed int64, seconds float64, trace bool) (*recordedRun, error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "bench: running %s seed %d trace %s\n", workload, seed, traceArg)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var run recordedRun
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("info ")); ok {
			if err := json.Unmarshal(rest, &run.Info); err != nil {
				return nil, err
			}
		}
		last = append(last[:0], line...)
	}
	if err := json.Unmarshal(last, &run.Result); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &run, nil
}

// quartiles are Python's statistics.quantiles(values, n=4): the
// exclusive method, which is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// metricSeries collects one set's values of each metric per workload.
func metricSeries(set *recordSet, trace bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range set.Runs {
		if run.Info.Trace != trace {
			continue
		}
		m := out[run.Info.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[run.Info.Workload] = m
		}
		for name, v := range run.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// printSet prints every metric of the set by name with its unit: the
// end-to-end ones as median and quartiles over the seeds with their
// spread beside the bound, the per-layer ones from the traced run.
func printSet(set *recordSet) {
	e2e, layers := metricSeries(set, false), metricSeries(set, true)
	for _, w := range workloads {
		if e2e[w.Name] == nil && layers[w.Name] == nil {
			continue
		}
		attempted, failed, noisy := 0, 0, 0
		for _, run := range set.Runs {
			if run.Info.Workload == w.Name {
				attempted += run.Result.Attempted
				failed += run.Result.Failed
				if run.Info.Noisy {
					noisy++
				}
			}
		}
		fmt.Printf("\n== %s: %d operations attempted, %d failed, %d noisy run(s)\n", w.Name, attempted, failed, noisy)
		for _, m := range endToEnd {
			vals := e2e[w.Name][m.Name]
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("  %-24s %14.4f %-5s  [q1 %.4f, q3 %.4f]  spread %.1f%% of the median (bound %.0f%%, n=%d)\n",
				m.Name, q2, m.Unit, q1, q3, 100*(q3-q1)/q2, 100*m.Bound, len(vals))
		}
		for _, m := range perLayer {
			if vals := layers[w.Name][m.Name]; len(vals) > 0 {
				fmt.Printf("  %-34s %14.4f %s\n", m.Name, vals[len(vals)-1], m.Unit)
			}
		}
	}
}
