package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every run: numbers from different
// machines or toolchains must not be compared as if they were one series.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"load_average"`
}

func readEnvironment(p paths) environment {
	env := environment{
		Commit:     "unknown", // the driver's checkout is not a git repository
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = p.root
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
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// stealTicks returns the ticks the hypervisor kept from this guest and
// all ticks, cumulative over every CPU (the first line of /proc/stat).
func stealTicks() (steal, total float64) {
	fields := strings.Fields(firstLine("/proc/stat"))
	for i, f := range fields {
		if i == 0 {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
