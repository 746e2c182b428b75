package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// goStats is a snapshot of the Go runtime counters the go.* layer metrics
// are deltas of.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readGoStats reads allocation and GC-cycle counters from runtime/metrics;
// the pause total comes from MemStats, the one exact source of it.
func readGoStats() goStats {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

func (a goStats) add(into map[string]float64, b goStats) {
	into["go.alloc_mb"] += float64(b.allocBytes-a.allocBytes) / (1 << 20)
	into["go.gc_cycles"] += float64(b.gcCycles - a.gcCycles)
	into["go.gc_pause_ms"] += float64(b.pauseNs-a.pauseNs) / 1e6
}

// provenance describes the host and build a run measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostProvenance(workload string, seed int64, seconds, trace int) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit names the source revision run.sh recorded in BENCH_COMMIT, or
// "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
