package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	fleet      = flag.Bool("fleet", false, "run TestFleet: the real binaries at the paper's scale (minutes, GBs of disk)")
	fleetOut   = flag.String("fleet-out", "", "write the record to this file")
	fleetData  = flag.String("fleet-data", "", "history data directory to reuse if it holds a manifest, else to simulate into (default: a temp dir)")
	fleetDays  = flag.Int("fleet-days", 547, "history days")
	fleetRaw   = flag.String("fleet-raw", "", "night directory to reuse if it holds raw/, else to simulate into (default: a temp dir)")
	fleetNodes = flag.Int("fleet-nodes", 3936, "simulated nodes (the paper's Ranger: 3936)")
)

// fleetSeed is the simulation seed of both halves.
const fleetSeed = "3"

// ingestPairs is how many ingest -workers 1 / -workers N pairs the
// night half runs.
const ingestPairs = 2

// dashboardURLs are the history half's fixed queries, uncached (the
// daemon runs with -cache -1): the paper's system, workload and
// stakeholder views.
var dashboardURLs = []string{
	"/api/v1/aggregate?metric=cpu_idle",
	"/api/v1/query?group=app&metrics=cpu_idle,cpu_flops&limit=10",
	"/api/v1/profiles/users?n=10",
	"/api/v1/efficiency",
	"/api/v1/trends",
	"/api/v1/workload",
	"/api/v1/report?suite=manager",
	"/api/v1/report?suite=admin",
}

// dashboardRepeats is how often each dashboard URL is asked.
const dashboardRepeats = 5

// environment is the BENCH_*.json records' env block.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"load_average"`
}

// record is one FLEET_*.json.
type record struct {
	Env     environment `json:"env"`
	Started string      `json:"started"`
	Night   *night      `json:"night"`
	History *history    `json:"history"`
}

type night struct {
	Nodes    int          `json:"nodes"`
	RawMB    float64      `json:"raw_mb"`
	RawFiles int          `json:"raw_files"`
	Workers  int          `json:"workers_n"`
	Pairs    []ingestPair `json:"pairs"`
}

// ingestPair is cmd/ingest at -workers 1 and at -workers N over the
// night, and whether the two wrote the same bytes.
type ingestPair struct {
	W1        run  `json:"w1"`
	WN        run  `json:"wn"`
	Identical bool `json:"identical"`
}

// run is one binary's execution: wall, throughput over the raw night,
// and peak RSS from wait4's rusage.
type run struct {
	WallS     float64 `json:"wall_s"`
	MBPerS    float64 `json:"mb_per_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

type history struct {
	Nodes       int                `json:"nodes"`
	Days        int                `json:"days"`
	DataMB      float64            `json:"data_mb"`
	SeriesMB    float64            `json:"series_mb"`
	Simulate    *run               `json:"simulate,omitempty"` // not the measurement; absent when the data was reused
	ColdStartMS float64            `json:"cold_start_ms"`      // exec to the first 200 from /readyz
	RSSLoadMB   float64            `json:"rss_after_load_mb"`
	Dashboard   map[string]latency `json:"dashboard_ms"`
	// ReloadAdoptMS is a forced reload with series.jsonl unchanged,
	// ReloadDecodeMS one after its stamp changed.
	ReloadAdoptMS  float64 `json:"reload_adopt_ms"`
	ReloadDecodeMS float64 `json:"reload_decode_ms"`
	// Reloads is /debug/reloads after both, where the daemon has it.
	Reloads json.RawMessage `json:"debug_reloads,omitempty"`
	VmHWMMB float64         `json:"vmhwm_mb"`
}

type latency struct {
	P50 float64 `json:"p50"`
	Max float64 `json:"max"`
}

// TestFleet builds the binaries from this checkout and measures them at
// the paper's scale. It sets no bound: the record is measurement.
func TestFleet(t *testing.T) {
	if !*fleet {
		t.Skip("the fleet measurement runs with -fleet (make fleet)")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/simulate", "./cmd/ingest", "./cmd/supremmd")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	rec := record{Env: readEnvironment(build.Dir), Started: time.Now().UTC().Format(time.RFC3339)}
	rec.Night = measureNight(t, bin)
	rec.History = measureHistory(t, bin)
	out, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", out)
	if *fleetOut != "" {
		if err := os.WriteFile(*fleetOut, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// measureNight simulates one Ranger night of raw archives (not timed)
// and ingests it at one worker and at GOMAXPROCS workers, in pairs.
func measureNight(t *testing.T, bin string) *night {
	dir := *fleetRaw
	if dir == "" {
		dir = t.TempDir()
	}
	raw := filepath.Join(dir, "raw")
	if _, err := os.Stat(raw); err != nil {
		execute(t, filepath.Join(bin, "simulate"), "-cluster", "ranger", "-nodes", strconv.Itoa(*fleetNodes), "-days", "1",
			"-seed", fleetSeed, "-raw", "-out", dir)
	}
	rawBytes, files := treeSize(t, raw)
	n := &night{Nodes: *fleetNodes, RawMB: float64(rawBytes) / 1e6, RawFiles: files, Workers: runtime.GOMAXPROCS(0)}
	for range ingestPairs {
		var outs [2]string
		var runs [2]run
		for k, workers := range []int{1, n.Workers} {
			outs[k] = filepath.Join(t.TempDir(), "out")
			runs[k] = execute(t, filepath.Join(bin, "ingest"), "-raw", raw, "-acct", filepath.Join(dir, "accounting.log"),
				"-out", outs[k], "-workers", strconv.Itoa(workers))
			runs[k].MBPerS = n.RawMB / runs[k].WallS
		}
		n.Pairs = append(n.Pairs, ingestPair{W1: runs[0], WN: runs[1], Identical: sameTree(t, outs[0], outs[1])})
	}
	return n
}

// measureHistory simulates eighteen months (not timed) and measures
// supremmd over them.
func measureHistory(t *testing.T, bin string) *history {
	dir := *fleetData
	if dir == "" {
		dir = t.TempDir()
	}
	h := &history{Nodes: *fleetNodes, Days: *fleetDays, Dashboard: map[string]latency{}}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.supremm")); err != nil {
		sim := execute(t, filepath.Join(bin, "simulate"), "-cluster", "ranger", "-nodes", strconv.Itoa(*fleetNodes),
			"-days", strconv.Itoa(*fleetDays), "-seed", fleetSeed, "-out", dir)
		h.Simulate = &sim
	}
	size, _ := treeSize(t, dir)
	h.DataMB = float64(size) / 1e6
	series := filepath.Join(dir, "series.jsonl")
	if st, err := os.Stat(series); err == nil {
		h.SeriesMB = float64(st.Size()) / 1e6
	}

	addr := freeAddr(t)
	d := exec.Command(filepath.Join(bin, "supremmd"), "-data", dir, "-addr", addr, "-poll", "0", "-cache", "-1")
	var logs bytes.Buffer
	d.Stdout, d.Stderr = &logs, &logs
	start := time.Now()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = d.Process.Signal(syscall.SIGTERM)
		_ = d.Wait()
		if t.Failed() {
			t.Logf("supremmd:\n%s", logs.String())
		}
	}()
	base := "http://" + addr
	for {
		if status, _ := request(t, "GET", base+"/readyz", true); status == http.StatusOK {
			break
		}
		if time.Since(start) > 5*time.Minute {
			t.Fatalf("supremmd not ready after %v", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.ColdStartMS = ms(time.Since(start))
	h.RSSLoadMB = procStatusMB(t, d.Process.Pid, "VmRSS")

	for _, u := range dashboardURLs {
		var took []float64
		for range dashboardRepeats {
			t0 := time.Now()
			if status, body := request(t, "GET", base+u, false); status != http.StatusOK {
				t.Fatalf("%s: %d %s", u, status, body)
			}
			took = append(took, ms(time.Since(t0)))
		}
		slices.Sort(took)
		h.Dashboard[u] = latency{P50: took[len(took)/2], Max: took[len(took)-1]}
	}

	h.ReloadAdoptMS = reload(t, base)
	later := time.Now().Add(time.Minute)
	if err := os.Chtimes(series, later, later); err != nil {
		t.Fatal(err)
	}
	h.ReloadDecodeMS = reload(t, base)
	if status, body := request(t, "GET", base+"/debug/reloads", false); status == http.StatusOK {
		h.Reloads = body
	}
	h.VmHWMMB = procStatusMB(t, d.Process.Pid, "VmHWM")
	return h
}

// reload times one POST /api/v1/reload.
func reload(t *testing.T, base string) float64 {
	t0 := time.Now()
	if status, body := request(t, "POST", base+"/api/v1/reload", false); status != http.StatusOK {
		t.Fatalf("reload: %d %s", status, body)
	}
	return ms(time.Since(t0))
}

// request sends one request; with mayFail a connection error reads as
// status 0 (the daemon is still loading).
func request(t *testing.T, method, url string, mayFail bool) (int, []byte) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if mayFail {
			return 0, nil
		}
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// execute runs one binary to completion and returns its wall time and
// peak RSS.
func execute(t *testing.T, name string, args ...string) run {
	cmd := exec.Command(name, args...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, logs.String())
	}
	r := run{WallS: time.Since(t0).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return r
}

// sameTree reports whether two directories hold the same files with
// the same bytes.
func sameTree(t *testing.T, a, b string) bool {
	read := func(root string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	fa, fb := read(a), read(b)
	if len(fa) != len(fb) {
		return false
	}
	for name, data := range fa {
		if other, ok := fb[name]; !ok || !bytes.Equal(data, other) {
			t.Logf("%s differs between %s and %s", name, a, b)
			return false
		}
	}
	return true
}

// treeSize is the bytes and the number of files under root.
func treeSize(t *testing.T, root string) (size int64, files int) {
	err := filepath.WalkDir(root, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		size += info.Size()
		files++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return size, files
}

// procStatusMB reads one kB field of /proc/<pid>/status, in MB.
func procStatusMB(t *testing.T, pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb / 1024
		}
	}
	t.Fatalf("no %s in /proc/%d/status", field, pid)
	return 0
}

// freeAddr is a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// moduleRoot is the directory of the go.mod this package belongs to.
func moduleRoot(t *testing.T) string {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// readEnvironment fills the env block as the benchmark does.
func readEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func firstLine(path string) string {
	data, _ := os.ReadFile(path)
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}
