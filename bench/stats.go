package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the p-quantile of v by linear interpolation between
// closest ranks (0 for an empty sample). v is not modified.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles statistics.quantiles(v, n=4) gives
// (the exclusive method) so the figure matches the driver's.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// describe renders a timing sample as the guide asks: median, quartiles
// and the sample count.
func describe(v []float64) string {
	return fmt.Sprintf("median %.4f  q1 %.4f  q3 %.4f  n=%d", median(v), quantile(v, 0.25), quantile(v, 0.75), len(v))
}

// timeIt returns the median seconds one call of fn takes over reps calls.
func timeIt(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = time.Since(t).Seconds()
	}
	return median(d)
}

// memDelta is the Go runtime's work between two points, per operation.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMs float64
}

func memSince(before *runtime.MemStats, ops int) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(max(ops, 1))
	return memDelta{
		allocMB:   float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20) / n,
		mallocs:   float64(now.Mallocs-before.Mallocs) / n,
		gcCycles:  float64(now.NumGC-before.NumGC) / n,
		gcPauseMs: float64(now.PauseTotalNs-before.PauseTotalNs) / 1e6 / n,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// 0 where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
