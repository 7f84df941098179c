package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is as close to process start as Go code gets (package
// variable initialisation runs before main and before any init of this
// package's importers' work); setup_s is measured from here.
var processStart = time.Now()

// cpuSeconds returns user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets a timed section: wall clock, process CPU, and the Go
// heap's cumulative allocation counters.
type meter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
}

type measured struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	AllocsK float64 `json:"allocs_k"`
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() measured {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return measured{
		WallS:   wall,
		CPUS:    cpu,
		AllocMB: float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6,
		AllocsK: float64(ms.Mallocs-m.ms0.Mallocs) / 1e3,
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
