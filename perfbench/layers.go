package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name to its figure.
type Metrics map[string]Metric

// Set records a figure.
func (m Metrics) Set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

// Layer accumulates the time spent in calls into one layer, wrapped from
// the benchmark's side of the call.
type Layer struct {
	Busy time.Duration
}

// Time runs fn and charges its wall time to the layer.
func (l *Layer) Time(fn func()) {
	t := time.Now()
	fn()
	l.Busy += time.Since(t)
}

// runtimeCounters reads process-wide allocation and GC counters.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// phase measures the wall and CPU time of one measured phase.
type phase struct {
	start time.Time
	cpu   time.Duration
}

func startPhase() phase { return phase{start: time.Now(), cpu: cpuTime()} }

func (p phase) stop() (wall, cpu time.Duration) {
	return time.Since(p.start), cpuTime() - p.cpu
}
