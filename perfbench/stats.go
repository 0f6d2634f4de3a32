package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metric is one reported number. The final result line carries only value
// and unit; the report before it also says how the number was obtained.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile or mean.
	Samples int `json:"samples,omitempty"`
	// Percentile names which percentile a tail value is.
	Percentile float64 `json:"percentile,omitempty"`
	// Exact marks a deterministic count of a single-client workload: the
	// same seed and program repeat it exactly.
	Exact bool `json:"exact,omitempty"`
}

// metrics is a named set of metrics.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setExact records a deterministic count.
func (m metrics) setExact(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit, Exact: true}
}

// setLatency records the median and tail of samples under name.p50 and
// name.tail.
func (m metrics) setLatency(name string, samples []float64, unit string) {
	if len(samples) == 0 {
		return
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	m[name+".p50"] = metric{Value: median(s), Unit: unit, Samples: len(s), Percentile: 50}
	v, pct := tail(s)
	m[name+".tail"] = metric{Value: v, Unit: unit, Samples: len(s), Percentile: pct}
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy and returns its median.
func medianOf(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return median(s)
}

// tail returns the highest percentile of sorted samples that still has at
// least ten samples beyond it, capped at the 99th (beyond p99 a run of a
// few seconds measures scheduler noise rather than the program), and which
// percentile that is. It is never below the median: with fewer than 21
// samples it is the sample just above the median, or the maximum.
func tail(s []float64) (v, pct float64) {
	n := len(s)
	idx := n - 11
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < idx {
		idx = p99
	}
	idx = min(max(idx, n/2), n-1)
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// hostJiffies reads the machine's stolen and total CPU time from the
// first line of /proc/stat: on a virtual machine, steal is time the host
// gave the vCPUs to someone else, which inflates every wall-clock metric.
func hostJiffies() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
