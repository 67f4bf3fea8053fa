package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// environment is stamped into every result: the figures depend on it
// (ext4 and tmpfs ingest at different speeds, GOMAXPROCS bounds the
// sharded and open-loop phases).
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	WorkFS     string `json:"work_fs"`
}

func stampEnv(workload string, seed int64, trace bool, seconds int, workDir string) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return environment{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		WorkFS:     fsType(workDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the statfs magic numbers of the filesystems a work
// directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goRuntime is a snapshot of the Go runtime counters the per-layer
// table reports as deltas over the measured phase.
type goRuntime struct{ allocBytes, gcCycles, gcCPUSeconds float64 }

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goRuntime{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
