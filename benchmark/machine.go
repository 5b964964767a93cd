package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machineFacts is recorded in every result and trace file, so numbers from
// different boxes or toolchains are never compared by accident.
type machineFacts struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// runFacts is what was run: the workload's shape as actually executed.
type runFacts struct {
	Workload      string     `json:"workload"`
	Seed          int64      `json:"seed"`
	Trace         bool       `json:"trace"`
	Subscriptions int        `json:"subscriptions"`
	Templates     int        `json:"templates"`
	Setups        int        `json:"setups"`
	SatSeconds    float64    `json:"sat_seconds"`
	SoloSeconds   float64    `json:"solo_seconds"`
	CruiseSeconds float64    `json:"cruise_seconds"`
	CruiseRate    float64    `json:"cruise_events_per_s"`
	Batch         int        `json:"events_per_frame"`
	ChurnPace     float64    `json:"churn_cycles_per_s"` // 0 = closed loop
	Window        int        `json:"delivery_window"`
	DaemonFlags   [][]string `json:"thematicd_flags"`
}

func readMachine() machineFacts {
	m := machineFacts{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	// Outside a git checkout (the benchmark driver's copy) the SHA stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}
