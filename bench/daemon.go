package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates the repository and the benchmark's scratch space. The
// benchmark writes only under bench/out.
type paths struct {
	root string // repository root (the directory holding the product go.mod)
	out  string // bench/out
	bin  string // bench/out/bin: the built simulate, ingest and supremmd
}

// findPaths walks up from the working directory to the product module.
// `go run -C bench .` and `go test` both start inside bench/.
func findPaths() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module supremm\n") {
			out := filepath.Join(dir, "bench", "out")
			return paths{root: dir, out: out, bin: filepath.Join(out, "bin")}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, errors.New("cannot find the supremm module above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles the three commands the workloads drive, with
// no flags beyond the output path, and returns how long that took.
func buildBinaries(p paths) (time.Duration, error) {
	if err := os.MkdirAll(p.bin, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", p.bin+string(filepath.Separator),
		"./cmd/simulate", "./cmd/ingest", "./cmd/supremmd")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// childUsage is what one finished child process cost.
type childUsage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stderr []byte
}

// runChild runs a built binary to completion.
func runChild(bin string, args ...string) (childUsage, error) {
	cmd := exec.Command(bin, args...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	start := time.Now()
	err := cmd.Run()
	u := childUsage{wall: time.Since(start), stderr: []byte(errBuf.String())}
	if err != nil {
		return u, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, errBuf.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u, nil
}

// daemon is one running supremmd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	startMS float64 // exec -> first /readyz 200
	// loadRSSMB is the peak resident set (VmHWM) once ready: what loading
	// and indexing the directory needs, before any request.
	loadRSSMB float64
}

// freeAddr picks a loopback port nothing is listening on. supremmd logs
// the address it was given, not the one it bound, so the benchmark
// cannot pass port 0 and must choose.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs supremmd over dir with its default flags plus the
// address (and extra, e.g. -poll 0) and waits for /readyz to answer 200.
func startDaemon(p paths, dir string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, logPath: filepath.Join(dir, "..", "supremmd-"+strings.ReplaceAll(addr, ":", "_")+".log")}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	args := append([]string{"-data", dir, "-addr", addr}, extra...)
	d.cmd = exec.Command(filepath.Join(p.bin, "supremmd"), args...)
	d.cmd.Stderr = logFile
	// Should the benchmark itself be killed, the daemon must not outlive it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	for {
		if c, err := dialHTTP(addr); err == nil {
			res, err := c.get("/readyz")
			c.Close()
			if err == nil && res.status == 200 {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			log, _ := os.ReadFile(d.logPath)
			return nil, fmt.Errorf("supremmd not ready after 60 s:\n%s", log)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.startMS = float64(time.Since(start)) / 1e6
	if d.loadRSSMB, err = d.rssPeakMB(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a terminated daemon carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

// procCPU is a process's cumulative CPU from /proc/<pid>/stat.
type procCPU struct{ user, sys time.Duration }

func (c procCPU) total() time.Duration { return c.user + c.sys }

const clockTick = 100 // USER_HZ; fixed at 100 on Linux

func (d *daemon) cpu() (procCPU, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return procCPU{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return procCPU{}, fmt.Errorf("unparseable /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procCPU{}, fmt.Errorf("unparseable /proc stat line %q", data)
	}
	tick := time.Second / clockTick
	return procCPU{user: time.Duration(ut) * tick, sys: time.Duration(st) * tick}, nil
}

// rssPeakMB reads VmHWM, the daemon's peak resident set so far.
func (d *daemon) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetRSSPeak makes VmHWM restart from the current resident set.
func (d *daemon) resetRSSPeak() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// rssWatch follows the daemon's resident set through a timed window: at
// every slice boundary it reads the peak since the last one and resets
// it. The peak over a whole window is the highest of a few coincidences
// (two dashboard answers recomputed at once just after a generation
// swap) and ran between 247 and 374 MB over ten runs of one commit on
// reload-under-load; the median over the window's slices of each
// slice's peak ran between 229 and 255 MB.
type rssWatch struct {
	d     *daemon
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	peaks []float64 // MB, one per whole slice
	err   error     // the first failure to read or reset
}

func startRSSWatch(d *daemon, slice time.Duration) (*rssWatch, error) {
	if err := d.resetRSSPeak(); err != nil {
		return nil, err
	}
	w := &rssWatch{d: d, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.read()
			}
		}
	}()
	return w, nil
}

func (w *rssWatch) read() {
	mb, err := w.d.rssPeakMB()
	if err == nil {
		err = w.d.resetRSSPeak()
	}
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.peaks = append(w.peaks, mb)
}

// halt stops the watch's goroutine and waits for it; it may be called
// more than once.
func (w *rssWatch) halt() {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// finish stops the watch and returns the median slice peak. The part of
// the window after the last boundary is dropped, unless the window was
// shorter than a slice and that part is all there is.
func (w *rssWatch) finish() (float64, error) {
	w.halt()
	if len(w.peaks) == 0 {
		w.read()
	}
	return median(w.peaks), w.err
}

// daemonMetrics is the part of supremmd's /metrics the benchmark reads.
type daemonMetrics struct {
	Jobs         int   `json:"jobs"`
	Generation   int64 `json:"store_generation"`
	Status5xx    int64 `json:"responses_5xx"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int64 `json:"cache_entries"`
	Reloads      int64 `json:"reloads"`
	ReloadErrors int64 `json:"reload_errors"`
	Shed         int64 `json:"shed"`
	Deadline     int64 `json:"deadline_timeouts"`
	Admission    struct {
		Queued       int64 `json:"queued"`
		InFlightPeak int64 `json:"in_flight_peak"`
	} `json:"admission"`
}

func fetchMetrics(c *httpConn) (daemonMetrics, error) {
	var m daemonMetrics
	res, err := c.get("/metrics")
	if err != nil {
		return m, err
	}
	if res.status != 200 {
		return m, fmt.Errorf("/metrics answered %d", res.status)
	}
	return m, json.Unmarshal(res.body, &m)
}

// selfCPU is the benchmark process's own cumulative CPU.
func selfCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the calling thread's cumulative CPU; it means something
// only to a goroutine that holds its thread (runtime.LockOSThread).
func threadCPU() time.Duration { return rusageCPU(syscall.RUSAGE_THREAD) }

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
