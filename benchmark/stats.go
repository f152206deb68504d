package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// latencies turns consecutive timestamps into per-operation latencies,
// sorted ascending, reusing the stamps slice: stamps[0] is the start of the
// first operation and stamps[i] the completion of operation i.
func latencies(stamps []int64) []int64 {
	for i := len(stamps) - 1; i > 0; i-- {
		stamps[i] -= stamps[i-1]
	}
	lat := stamps[1:]
	slices.Sort(lat)
	return lat
}

// sortedLatencies is latencies into a slice of its own, so the stamps can be
// reused by the next phase.
func sortedLatencies(stamps []int64) []int64 {
	return append([]int64(nil), latencies(stamps)...)
}

// clock is the benchmark's monotonic time base: one time.Now per reading.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// timerCost measures one now() call, the per-operation timing overhead
// every latency sample carries.
func timerCost() float64 {
	const n = 200000
	t0 := now()
	for i := 0; i < n; i++ {
		now()
	}
	return float64(now()-t0) / n
}

// hostInfo is the result file's host block.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func host() hostInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
	}
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// trimmedMean is the mean of vals after dropping the share trim of the
// values at each end (at least none, at most all but one).
func trimmedMean(vals []float64, trim float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
