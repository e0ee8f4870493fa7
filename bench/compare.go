package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// compareMain prints, per workload, a row for every end-to-end metric:
// each side's median and quartiles, the change with its base, the fixed
// bound and a verdict. It exits non-zero when any row is worse or side
// B failed more operations than side A.
//
//	bench compare A.json B.json        last set of each file
//	bench compare A.json:0 A.json:1    two sets of one file
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json[:set] B.json[:set]")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b *recordSet
		if b, err = loadSet(args[1]); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func loadSet(arg string) (*recordSet, error) {
	path, index := arg, -1
	if i := strings.LastIndexByte(arg, ':'); i > 0 {
		if n, err := strconv.Atoi(arg[i+1:]); err == nil {
			path, index = arg[:i], n
		}
	}
	f, err := loadRecordFile(path)
	if err != nil {
		return nil, err
	}
	if index < 0 {
		index = len(f.Sets) - 1
	}
	if index < 0 || index >= len(f.Sets) {
		return nil, fmt.Errorf("%s has %d set(s), no set %d", path, len(f.Sets), index)
	}
	return &f.Sets[index], nil
}

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares side B with side A (the parent) on one metric.
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: A's own inter-quartile spread exceeds the bound and the
//     two sides' runs interleave, so neither worse nor within can be said;
//   - better: B's median is better by more than A's inter-quartile
//     spread and B wins at least nine tenths of the seed-paired runs;
//   - within: everything else.
func judge(m metricSpec, a, b []float64) (verdict string, change float64) {
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if medA == 0 {
		return verdictUnresolved, 0
	}
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change = sign * (medB - medA) / medA
	spread := (q3 - q1) / medA
	// The sides separate when every run of one beats every run of the other.
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	separate := maxA < minB || maxB < minA
	if spread > m.Bound && !separate {
		return verdictUnresolved, change
	}
	if change > m.Bound {
		return verdictWorse, change
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if -change > spread && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return verdictBetter, change
	}
	return verdictWithin, change
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func failedRatio(set *recordSet, workload string) (failed, attempted int) {
	for _, run := range set.Runs {
		if run.Info.Workload == workload && !run.Info.Trace {
			failed += run.Result.Failed
			attempted += run.Result.Attempted
		}
	}
	return failed, attempted
}

func compareSets(a, b *recordSet) int {
	sa, sb := metricSeries(a, false), metricSeries(b, false)
	bad := false
	for _, w := range workloads {
		if sa[w.Name] == nil || sb[w.Name] == nil {
			continue
		}
		fa, na := failedRatio(a, w.Name)
		fb, nb := failedRatio(b, w.Name)
		fmt.Printf("\n== %s   failed A %d of %d, B %d of %d\n", w.Name, fa, na, fb, nb)
		if float64(fb)*float64(na) > float64(fa)*float64(nb) {
			fmt.Println("  B fails a larger share of its operations than A")
			bad = true
		}
		for _, m := range endToEnd {
			va, vb := sa[w.Name][m.Name], sb[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(m, va, vb)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Printf("  %-22s A %11.4f [%.4f, %.4f]  B %11.4f [%.4f, %.4f] %-5s  %+6.1f%% of %.4f (worse is +, bound %.0f%%)  %s\n",
				m.Name, a2, a1, a3, b2, b1, b3, m.Unit, 100*change, a2, 100*m.Bound, verdict)
			if verdict == verdictWorse {
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
