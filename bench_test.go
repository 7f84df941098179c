// Package repro's root benchmarks regenerate every figure and table of the
// paper's evaluation (one benchmark per experiment; see DESIGN.md §3 for
// the index). Each benchmark reports the experiment's headline quantities
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report; `cmd/vodbench` prints the full series and tables.
package repro

import (
	"context"
	"io"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/flowctl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// BenchmarkSimThroughput measures the frame hot path end to end: the LAN
// scenario's delivered datagrams per wall-clock second and the simulated-
// to-wall time ratio, via the same sim.MeasureThroughput that backs
// `vodbench -stats`. The allocs/op column is the alloc-regression headline
// for the whole scenario; per-component floors are pinned by the
// TestAllocs* tests in internal/{wire,clock,netsim}.
func BenchmarkSimThroughput(b *testing.B) {
	var packets, simSecs, wallSecs float64
	for i := 0; i < b.N; i++ {
		tp := sim.MeasureThroughput(int64(i + 1))
		packets += float64(tp.Packets)
		simSecs += tp.SimTime.Seconds()
		wallSecs += tp.WallTime.Seconds()
	}
	b.ReportMetric(packets/wallSecs, "packets/s")
	b.ReportMetric(simSecs/wallSecs, "sim-s/wall-s")
}

// BenchmarkFig4LANScenario regenerates Figures 4a–4d: the 90-second LAN
// run with a server crash at ~38s and a load-balancing migration ~24s
// later. Reported metrics are the figures' headline values.
func BenchmarkFig4LANScenario(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		sc := sim.LANScenario(int64(i + 1))
		sc.Record = sim.SW | sim.HW
		res = sim.Run(sc)
	}
	crashAt := eventAt(sim.LANScenario(1), "crash")
	b.ReportMetric(float64(res.Final.Skipped()), "skipped-frames")
	b.ReportMetric(float64(res.Final.Late), "late-frames")
	b.ReportMetric(float64(res.Final.Stalls), "stalls")
	b.ReportMetric(mean(window(res.SWOccupancy, 20*time.Second, 35*time.Second)), "sw-occ-mean")
	b.ReportMetric(slices.Min(window(res.HWOccupancy, crashAt, crashAt+4*time.Second)), "hw-bytes-min-at-crash")
}

// eventAt returns when sc's event labelled label happens.
func eventAt(sc sim.Scenario, label string) time.Duration {
	for _, ev := range sc.Events {
		if ev.Label == label {
			return ev.At
		}
	}
	panic("no event " + label)
}

// window returns the samples of s taken at from ≤ t < to.
func window(s *metrics.Series, from, to time.Duration) []float64 {
	var out []float64
	for i, v := range s.Values {
		if t := s.Time(i); from <= t && t < to {
			out = append(out, v)
		}
	}
	return out
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// BenchmarkFig5WANScenario regenerates Figures 5a–5b: the same behavior
// over a lossy 7-hop WAN path.
func BenchmarkFig5WANScenario(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res = sim.Run(sim.WANScenario(int64(i + 1)))
	}
	b.ReportMetric(float64(res.Final.Skipped()), "skipped-frames")
	b.ReportMetric(float64(res.Final.OverflowDropped), "overflow-discards")
	b.ReportMetric(float64(res.Final.Displayed), "displayed-frames")
}

// BenchmarkTableTakeover measures crash-takeover latency (paper: ≈0.5s on
// a LAN, dominated by failure detection).
func BenchmarkTableTakeover(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += sim.TakeoverTrial(int64(i + 1))
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "takeover-ms")
}

// BenchmarkTableSyncOverhead measures the state-sync bandwidth share
// (paper: < 1/1000 of the service's bandwidth).
func BenchmarkTableSyncOverhead(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.LANScenario(int64(i + 1)))
		var video, syncBytes uint64
		for _, st := range res.ServerStats {
			video += st.VideoBytes
			syncBytes += st.SyncBytes
		}
		ratio = float64(syncBytes) / float64(video)
	}
	b.ReportMetric(ratio*1e6, "sync-ppm") // parts per million of video bandwidth
}

// BenchmarkTableEmergency measures the §4.1 emergency mechanism: the total
// extra frames of the decaying burst and the peak bandwidth boost after a
// crash (paper: 43 frames; ≤ +40%).
func BenchmarkTableEmergency(b *testing.B) {
	var boost float64
	for i := 0; i < b.N; i++ {
		sc := sim.LANScenario(int64(i + 1))
		sc.Record = sim.Video
		res := sim.Run(sc)
		crashAt := eventAt(sc, "crash")
		var peak float64
		for w := crashAt; w < crashAt+3500*time.Millisecond; w += 100 * time.Millisecond {
			r := res.VideoBytesCum.At(w+time.Second) - res.VideoBytesCum.At(w)
			if r > peak {
				peak = r
			}
		}
		mean := res.VideoBytesCum.Last() / res.VideoBytesCum.Time(res.VideoBytesCum.Len()-1).Seconds()
		boost = (peak - mean) / mean * 100
	}
	b.ReportMetric(float64(flowctl.EmergencyTotal(12, 0.8)), "extra-frames-q12")
	b.ReportMetric(boost, "peak-boost-pct")
}

// BenchmarkTableFaultTolerance contrasts replication-k with Tiger striping
// (§7): k=3 survives two failures; Tiger loses blocks when two adjacent
// cubs die.
func BenchmarkTableFaultTolerance(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("faults", int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	// Row 0: replication k=3 with 2 failures; row 3: Tiger, 2 adjacent.
	repl, _ := strconv.Atoi(t.Rows[0][2])
	tiger, _ := strconv.Atoi(t.Rows[3][2])
	b.ReportMetric(float64(repl), "repl-k3-frames-lost")
	b.ReportMetric(float64(tiger), "tiger-2adj-frames-lost")
}

// BenchmarkTableFlowControl verifies and times the Figure 2 policy table.
func BenchmarkTableFlowControl(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("flowctl", 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	ok := 0.0
	for _, row := range t.Rows {
		if row[3] == "OK" {
			ok++
		}
	}
	b.ReportMetric(ok, "policy-rows-verified")
}

// BenchmarkAblationBufferSweep regenerates the §4.2 buffer-sizing sweep.
func BenchmarkAblationBufferSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.TableByID("buffersweep", int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEmergencySweep regenerates the §4.1 (q, f) tradeoff.
func BenchmarkAblationEmergencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.TableByID("emergencysweep", int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSyncSweep regenerates the §5.2 sync-period tradeoff.
func BenchmarkAblationSyncSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.TableByID("syncsweep", int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQoS regenerates the §2 comparison: the WAN scenario
// with and without a reserved (loss-free, low-jitter) channel.
func BenchmarkAblationQoS(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("qos", int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	bestEffort, _ := strconv.Atoi(t.Rows[0][2])
	reserved, _ := strconv.Atoi(t.Rows[1][2])
	b.ReportMetric(float64(bestEffort), "skipped-best-effort")
	b.ReportMetric(float64(reserved), "skipped-reserved")
}

// BenchmarkAblationOverload regenerates the traffic-class overload trial:
// a flash crowd of best-effort viewers on one title while the server runs
// the degrade-before-refuse ladder (shaper + quality shedding + admission
// refusals). The metrics pin the class guarantees: reserved viewers stall
// zero times while best-effort load is degraded, shed, and refused.
func BenchmarkAblationOverload(b *testing.B) {
	var res sim.OverloadResult
	for i := 0; i < b.N; i++ {
		res = sim.OverloadTrial(sim.OverloadConfig{Seed: int64(i + 1)})
	}
	b.ReportMetric(float64(res.Reserved.Stalls), "reserved-stalls")
	b.ReportMetric(float64(res.Stats.DegradedFrames), "degraded-frames")
	b.ReportMetric(float64(res.Stats.ShedTokens), "shed-tokens")
	b.ReportMetric(float64(res.Stats.RefusalsBestEffort), "refused-best-effort")
}

// BenchmarkAblationCapacity regenerates the viewers-per-server saturation
// experiment (one 100 Mbps uplink; the knee near 70 motivates the paper's
// bring-up-another-server design and admission control).
func BenchmarkAblationCapacity(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("capacity", int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	starvedAt85, _ := strconv.Atoi(t.Rows[3][4])
	b.ReportMetric(float64(starvedAt85), "starved-viewers-at-119pct")
}

// BenchmarkTableScale regenerates the two-tier capacity table (DESIGN
// §12): sharded movie groups plus leased viewers, up to 50 servers and
// 10,000 concurrent streams. The metrics pin the headline row: every
// viewer healthy, and exactly one Open per viewer (the ring-ordered
// anycast lands on the owner first try).
func BenchmarkTableScale(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("scale", int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	last := t.Rows[len(t.Rows)-1]
	healthy, _ := strconv.Atoi(last[3])
	opens, _ := strconv.ParseFloat(last[7], 64)
	b.ReportMetric(float64(healthy), "healthy-viewers-50x10k")
	b.ReportMetric(opens, "opens-per-viewer")
}

// BenchmarkPaperSeed is one seed of the benchmark program's paper_eval
// pass: every figure rendered with WriteTSV, every table with Write, the
// overload trial and five takeover trials. `make bench-paper-budget` holds
// its allocations under BENCH_paper_budget; the seed is fixed, so they do
// not depend on b.N.
func BenchmarkPaperSeed(b *testing.B) {
	const seed, takeovers = 1, 5
	for i := 0; i < b.N; i++ {
		figs, _ := sim.Figures(seed)
		for _, id := range sim.FigureIDs() {
			if err := figs[id].WriteTSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		for _, id := range sim.TableIDs() {
			t, err := sim.TableByID(id, seed)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.Write(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		sim.OverloadTrial(sim.OverloadConfig{Seed: seed})
		for k := int64(1); k <= takeovers; k++ {
			sim.TakeoverTrial(k)
		}
	}
}

// BenchmarkChaosSeeds is the chaos sweep over seeds 1–20 on one worker: a
// cluster built, driven through its fault schedule and torn down per seed.
// `make bench-chaos-budget` holds its allocations under BENCH_chaos_budget.
func BenchmarkChaosSeeds(b *testing.B) {
	const seeds = 20
	for i := 0; i < b.N; i++ {
		reports, _, err := chaos.Sweep(context.Background(), 1, seeds, 1, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if failed := chaos.FailedSeeds(reports); len(failed) > 0 {
			b.Fatalf("seeds %v violate an invariant", failed)
		}
	}
}

// BenchmarkAblationDiscardPolicy regenerates the §3 discard-policy
// ablation (I-frame preserving vs naive).
func BenchmarkAblationDiscardPolicy(b *testing.B) {
	var t sim.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = sim.TableByID("discard", int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	iPreserving, _ := strconv.Atoi(t.Rows[0][2])
	iNaive, _ := strconv.Atoi(t.Rows[1][2])
	b.ReportMetric(float64(iPreserving), "iframes-lost-paper-policy")
	b.ReportMetric(float64(iNaive), "iframes-lost-naive")
}
