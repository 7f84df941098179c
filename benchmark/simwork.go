package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// The three simulator workloads. They enter through the exported entry
// points the vodbench CLI uses and read results off the rendered tables,
// series and reports, so nothing here names a data-plane flag or an
// optional sender interface: ROADMAP item 2 can delete those without
// touching the instrument.

// paper_eval and scale_table fold the seed into a bounded family of inputs
// (README, "Seeds"), small enough to have been run completely when the
// benchmark was recorded: what the program does on every input the benchmark
// can generate is then known, the known failures included, and a new failed
// operation is a regression and not an unlucky draw. Nothing inside the
// family is left out.
const seedWindows = 64

func fold(seed int64, m int64) int64 { return ((seed % m) + m) % m }

// sizes are the fixed functions of --seconds (README, "Sizing").
func paperSeeds(o *options) int { return max(1, int(math.Round(0.4*o.seconds))) }
func chaosSeeds(o *options) int {
	return min(chaosWindow, max(8, int(math.Round(20*o.seconds))))
}

// digest accumulates everything a workload rendered; equal digests prove
// two runs computed identical simulated statistics.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) Write(p []byte) (int, error) { return d.h.Write(p) }

// record stores the digest in out, and its first 48 bits — all a float64
// metric can carry exactly — as sim.digest_u48.
func (d *digest) record(out *outcome) {
	s := d.h.Sum(nil)
	out.Digest = hex.EncodeToString(s)
	out.Values["sim.digest_u48"] = float64(binary.BigEndian.Uint64(s[:8]) >> 16)
}

// col returns the index of the named column of t.
func col(t sim.Table, name string) (int, error) {
	for i, h := range t.Header {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %q has no column %q (have %v)", t.ID, name, t.Header)
}

// cells parses the named columns of one row as numbers; a trailing '%' or
// unit suffix after the number is ignored.
func cells(t sim.Table, row []string, names ...string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, name := range names {
		c, err := col(t, name)
		if err != nil {
			return nil, err
		}
		if c >= len(row) {
			return nil, fmt.Errorf("table %q: row %v has no column %q", t.ID, row, name)
		}
		num := strings.TrimRight(row[c], "%")
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return nil, fmt.Errorf("table %q column %q: %w", t.ID, name, err)
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------
// scale_table

// scaleTicksPerViewer is the display ticks each scale-table viewer is due:
// a 10 s feature at 30 frames/s (sim's scaleMovieLen).
const scaleTicksPerViewer = 300

func scaleSeed(o *options) int64 { return 1 + fold(o.seed, 16) }

// warmUp is the sim workloads' set-up: the two paper scenarios on a seed
// outside the timed ones fill the simulator's pools and grow the heap, and a
// collection leaves the timed section a settled heap to start from.
func warmUp(seed int64) {
	sim.Figures(seed)
	runtime.GC()
}

func setupScale(o *options) (any, error) {
	warmUp(scaleSeed(o) + 16)
	return nil, nil
}

func runScale(o *options, _ any, begin, end func()) (*outcome, error) {
	begin()
	t, err := sim.TableByID("scale", scaleSeed(o))
	end()
	if err != nil {
		return nil, err
	}
	d := newDigest()
	if err := t.Write(d); err != nil {
		return nil, err
	}
	out := &outcome{Values: map[string]float64{}}
	var viewers, healthy, stalls, opens float64
	for _, row := range t.Rows {
		c, err := cells(t, row, "viewers", "healthy", "stalls/healthy viewer", "opens/viewer")
		if err != nil {
			return nil, err
		}
		viewers += c[0]
		healthy += c[1]
		stalls += math.Round(c[2] * c[1])
		opens += c[3] * c[0]
	}
	if viewers == 0 {
		return nil, fmt.Errorf("scale table rendered no viewers")
	}
	out.Attempted = int(viewers)
	out.Failed = int(viewers - healthy)
	out.Values["stall_ticks"] = stalls
	out.Values["opens_per_viewer"] = opens / viewers
	out.Values["viewer_seconds"] = viewers * scaleTicksPerViewer / 30
	out.Values["displayed_share"] = 1 - (stalls+scaleTicksPerViewer*(viewers-healthy))/(scaleTicksPerViewer*viewers)
	out.check("every scale viewer healthy", healthy == viewers, "%v of %v healthy", healthy, viewers)
	out.check("scale viewers never stall", stalls == 0, "%v stall ticks", stalls)
	out.check("ring-ordered anycast lands first try", opens/viewers <= 1.005, "%.3f opens per viewer", opens/viewers)
	d.record(out)
	return out, nil
}

// ---------------------------------------------------------------------
// paper_eval

func paperSeed(o *options) int64 { return 1 + fold(o.seed, seedWindows)*8 }

// paperPass is one seed's worth of the paper-era evaluation: every figure,
// every table, the overload trial and five takeover trials. It returns the
// claim checks (the workload's operations, counted in acc) and adds to the
// sums in acc.
func paperPass(seed int64, w *digest, acc *paperAcc) ([]check, error) {
	var checks []check
	claim := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, newCheck(fmt.Sprintf("seed %d: %s", seed, name), ok, format, args...))
		acc.claims++
		if !ok {
			acc.failedClaims++
		}
	}

	figs, anns := sim.Figures(seed)
	for _, id := range sim.FigureIDs() {
		fmt.Fprintf(w, "== Figure %s ==\n", id)
		for _, a := range anns[id] {
			fmt.Fprintf(w, "# event %.1fs: %s\n", a.At.Seconds(), a.Label)
		}
		if err := figs[id].WriteTSV(w); err != nil {
			return nil, err
		}
	}

	tables := map[string]sim.Table{}
	for _, id := range sim.TableIDs() {
		t, err := sim.TableByID(id, seed)
		if err != nil {
			return nil, err
		}
		if err := t.Write(w); err != nil {
			return nil, err
		}
		tables[id] = t
	}

	// Figure 4's scenario is the obs table's scenario: its counters give
	// the stalls of Figure 4 and the section C boundary counts.
	obs := tables["obs"]
	var fig4Stalls float64
	for _, row := range obs.Rows {
		c, err := cells(obs, row, "value")
		if err != nil {
			return nil, err
		}
		name := row[1]
		if name == "client.stalls" {
			fig4Stalls += c[0]
		}
		acc.counts[name] += c[0]
	}
	claim("Figure 4 shows no stall", fig4Stalls == 0, "%v stall ticks", fig4Stalls)

	// Figure 5's scenario is the qos table's best-effort WAN row.
	qos := tables["qos"]
	c, err := cells(qos, qos.Rows[0], "stalls")
	if err != nil {
		return nil, err
	}
	fig5Stalls := c[0]

	syncT := tables["sync"]
	ratio, err := strconv.ParseFloat(syncT.Rows[len(syncT.Rows)-1][1], 64)
	if err != nil {
		return nil, fmt.Errorf("sync table: %w", err)
	}
	acc.syncPPM = append(acc.syncPPM, ratio*1e6)
	claim("state sync under 1/1000 of video", ratio*1e6 < 1000, "%.0f ppm", ratio*1e6)

	capT := tables["capacity"]
	capOK := true
	for _, row := range capT.Rows {
		c, err := cells(capT, row, "viewers", "uplink demand", "healthy")
		if err != nil {
			return nil, err
		}
		if c[1] <= 91 && c[2] != c[0] {
			capOK = false
		}
	}
	claim("capacity rows at <= 91% uplink all healthy", capOK, "%v", capT.Rows)

	// The k=3 row of the faults table. The table's own verdict (under 100
	// frames lost of ~2,700) holds on every seed; the issue's "loses 0
	// frames" does not — frames in flight at a crash are lost on 150 of
	// seeds 1-520 — and is asserted as a known failure.
	faults := tables["faults"]
	vcol, err := col(faults, "verdict")
	if err != nil {
		return nil, err
	}
	lost, err := cells(faults, faults.Rows[0], "frames lost")
	if err != nil {
		return nil, err
	}
	acc.k3Lost += lost[0]
	claim("replication k=3 rides out 2 failures", faults.Rows[0][vcol] == "service continuous", "%v", faults.Rows[0])
	checks = append(checks, knownFailure(fmt.Sprintf("seed %d: replication k=3 loses 0 frames with 2 failures", seed), lost[0] == 0, "%v frames lost", lost[0]))

	ov := sim.OverloadTrial(sim.OverloadConfig{Seed: seed})
	fmt.Fprintf(w, "overload %+v\n", ov)
	claim("overload: reserved class never stalls and is never refused",
		ov.Reserved.Stalls == 0 && ov.Reserved.Refusals == 0,
		"%d stalls, %d refusals", ov.Reserved.Stalls, ov.Reserved.Refusals)
	acc.displayed += float64(ov.Reserved.Displayed)
	acc.due += float64(ov.Reserved.Displayed + ov.Reserved.Stalls + ov.Reserved.Skipped)

	var sum time.Duration
	const trials = 5
	for i := int64(0); i < trials; i++ {
		d := sim.TakeoverTrial((seed-1)*trials + 1 + i)
		fmt.Fprintf(w, "takeover %v\n", d)
		sum += d
	}
	mean := float64(sum.Milliseconds()) / trials
	acc.takeoverMS = append(acc.takeoverMS, mean)
	claim("takeover within 450-700 ms", mean >= 450 && mean <= 700, "mean of %d trials %.0f ms", trials, mean)

	acc.stalls += fig4Stalls + fig5Stalls + float64(ov.Reserved.Stalls)
	return checks, nil
}

type paperAcc struct {
	counts       map[string]float64
	syncPPM      []float64
	takeoverMS   []float64
	claims       int
	failedClaims int
	stalls       float64
	k3Lost       float64
	displayed    float64
	due          float64
}

// simCounts are the section C sim-tier boundary counts, summed over nodes
// and seeds from the obs table.
var simCounts = []string{
	"netsim.sent", "netsim.delivered", "netsim.dropped",
	"gcs.view_changes", "gcs.retransmissions",
	"server.frames_sent", "server.sync_bytes", "server.takeovers",
	"client.frames_received", "client.late_frames", "client.skipped_frames", "client.reopens",
}

func setupPaper(o *options) (any, error) {
	warmUp(paperSeed(o) + int64(paperSeeds(o)))
	return nil, nil
}

func runPaper(o *options, _ any, begin, end func()) (*outcome, error) {
	n := paperSeeds(o)
	first := paperSeed(o)
	acc := &paperAcc{counts: map[string]float64{}}
	d := newDigest()
	out := &outcome{Values: map[string]float64{}}
	begin()
	for s := first; s < first+int64(n); s++ {
		checks, err := paperPass(s, d, acc)
		if err != nil {
			end()
			return nil, err
		}
		out.Checks = append(out.Checks, checks...)
	}
	end()
	out.Attempted, out.Failed = acc.claims, acc.failedClaims
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	out.Values["stall_ticks"] = acc.stalls
	out.Values["takeover_ms"] = mean(acc.takeoverMS)
	out.Values["sync_overhead_ppm"] = mean(acc.syncPPM)
	out.Values["faults.k3_frames_lost"] = acc.k3Lost
	out.Values["displayed_share"] = acc.displayed / acc.due
	for _, name := range simCounts {
		out.Values[name] = acc.counts[name]
	}
	d.record(out)
	return out, nil
}

// ---------------------------------------------------------------------
// chaos_sweep

// chaosWindow is the most seeds one run sweeps. Every run sweeps the same
// schedules — seeds 1..n — and --seed only rotates where in that set the
// sweep starts. The set is fixed because the totals must compare across
// seeds: 400 schedules drawn afresh differ by ±3 % in allocated bytes and
// ±1 % in displayed share, which would widen every bound the sim workloads
// share with this one. Seeds 1..400 hold none of the 13 seeds among the
// first 25,600 whose schedule violates an invariant at the commit the
// benchmark was defined on (README, "Seeds").
const chaosWindow = 400

func setupChaos(o *options) (any, error) {
	warmUp(chaosWindow + 1)
	return nil, nil
}

func runChaos(o *options, _ any, begin, end func()) (*outcome, error) {
	n := chaosSeeds(o)
	offset := int(fold(o.seed, int64(n)))
	d := newDigest()
	var buf bytes.Buffer
	seedMS := make([]float64, 0, n)
	out := &outcome{Values: map[string]float64{}}
	var displayed, skipped, stalls, reopens, takeovers float64
	var reports []*chaos.Report
	begin()
	last := time.Now()
	// Seeds 1+offset..n, then 1..offset.
	for _, part := range [][2]int{{1 + offset, n - offset}, {1, offset}} {
		if part[1] == 0 {
			continue
		}
		reps, _, err := chaos.Sweep(context.Background(), int64(part[0]), part[1], 1, nil, func(rep *chaos.Report) {
			now := time.Now()
			seedMS = append(seedMS, float64(now.Sub(last).Nanoseconds())/1e6)
			last = now
		})
		if err != nil {
			end()
			return nil, err
		}
		reports = append(reports, reps...)
	}
	end()
	for _, rep := range reports {
		buf.Reset()
		rep.Write(&buf)
		d.Write(buf.Bytes())
		displayed += float64(rep.Displayed)
		skipped += float64(rep.GapSkipped)
		stalls += float64(rep.Stalls)
		reopens += float64(rep.Reopens)
		takeovers += float64(rep.Takeovers)
	}
	failed := chaos.FailedSeeds(reports)
	out.Attempted = n
	out.Failed = len(failed)
	out.check("no chaos seed violates an invariant", len(failed) == 0, "failed seeds %v", failed)
	out.Values["seed_ms_p50"] = quantile(seedMS, 0.50)
	out.Values["seed_ms_p95"] = quantile(seedMS, 0.95)
	out.Values["displayed_share"] = displayed / (displayed + skipped + stalls)
	out.Values["viewer_seconds"] = (displayed + skipped + stalls) / 30
	out.Values["chaos.stall_ticks"] = stalls
	out.Values["client.skipped_frames"] = skipped
	out.Values["client.reopens"] = reopens
	out.Values["server.takeovers"] = takeovers
	d.record(out)
	return out, nil
}
