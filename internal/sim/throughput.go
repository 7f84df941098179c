package sim

import (
	"runtime"
	"time"
)

// Throughput is one hot-path throughput measurement: the Figure 4 LAN
// scenario run start to finish under a wall-clock timer, with the simulated
// network's delivery counters alongside. BenchmarkSimThroughput and
// `vodbench -stats` both report from here, so the benchmark and the CLI can
// never disagree about what "simulator throughput" means.
type Throughput struct {
	Packets    uint64        // datagrams delivered to a handler
	Bytes      uint64        // payload bytes delivered
	SimTime    time.Duration // simulated time covered by the run
	WallTime   time.Duration // wall-clock time the run took
	Allocs     uint64        // heap allocations performed by the run
	AllocBytes uint64        // heap bytes allocated by the run
	Result     *Result       // the full scenario result
}

// PacketsPerSec is delivered datagrams per wall-clock second.
func (t Throughput) PacketsPerSec() float64 {
	return float64(t.Packets) / t.WallTime.Seconds()
}

// SpeedRatio is simulated seconds advanced per wall-clock second.
func (t Throughput) SpeedRatio() float64 {
	return t.SimTime.Seconds() / t.WallTime.Seconds()
}

// MeasureThroughput runs the LAN scenario with the given seed and measures
// the simulator's delivery throughput.
func MeasureThroughput(seed int64) Throughput {
	sc := LANScenario(seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := Run(sc)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if wall <= 0 {
		wall = time.Nanosecond
	}
	net := res.Obs["net"]
	return Throughput{
		Packets:    net.Value("netsim.delivered"),
		Bytes:      net.Value("netsim.delivered_bytes"),
		SimTime:    res.Duration,
		WallTime:   wall,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Result:     res,
	}
}
