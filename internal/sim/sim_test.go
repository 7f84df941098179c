package sim

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestFig4LANShape checks the paper's Figure 4 qualitative claims on the
// LAN scenario. Quantities are asserted as shapes (who drops where, rough
// magnitudes), not exact values — see EXPERIMENTS.md.
func TestFig4LANShape(t *testing.T) {
	sc := LANScenario(1)
	sc.Record = Skipped | Late | Stalls | SW | HW
	res := Run(sc)
	crashAt, lbAt := fig4CrashAt, fig4LBAt

	t.Logf("final counters: %+v", res.Final)
	t.Logf("client stats:   %+v", res.ClientStats)
	for id, st := range res.ServerStats {
		t.Logf("server %s: %+v", id, st)
	}
	t.Logf("skipped: start=%v crash=%v lb=%v end=%v",
		res.SkippedCum.At(15*time.Second), res.SkippedCum.At(crashAt),
		res.SkippedCum.At(lbAt), res.SkippedCum.Last())
	t.Logf("late:    crash-=%v crash+=%v lb-=%v end=%v",
		res.LateCum.At(crashAt), res.LateCum.At(crashAt+8*time.Second),
		res.LateCum.At(lbAt), res.LateCum.Last())
	t.Logf("sw occ:  mean(20..35s)=%.1f min(crash..+5s)=%.0f min(lb..+5s)=%.0f max=%.0f",
		mean(window(res.SWOccupancy, 20*time.Second, 35*time.Second)),
		slices.Min(window(res.SWOccupancy, crashAt, crashAt+5*time.Second)),
		slices.Min(window(res.SWOccupancy, lbAt, lbAt+5*time.Second)),
		slices.Max(res.SWOccupancy.Values))
	t.Logf("hw occ:  max=%.0f min(crash..+5s)=%.0f t(fill)≈%v",
		slices.Max(res.HWOccupancy.Values),
		slices.Min(window(res.HWOccupancy, crashAt, crashAt+5*time.Second)),
		firstTimeAbove(res, 0.95))
	t.Logf("stalls:  %v", res.StallsCum.Last())

	// Fig 4a: on a loss-free LAN frames are skipped only via overflow
	// during emergency recovery, a handful per event, never an I frame.
	if res.Final.GapSkipped > res.Final.OverflowDropped {
		t.Errorf("GapSkipped (%d) exceeds overflow discards (%d) on a loss-free LAN",
			res.Final.GapSkipped, res.Final.OverflowDropped)
	}
	if res.Final.OverflowDroppedI != 0 {
		t.Errorf("%d I frames discarded; policy must avoid I frames", res.Final.OverflowDroppedI)
	}
	if res.Final.Skipped() > 30 {
		t.Errorf("total skipped = %d, want small (paper: ≤6 per emergency)", res.Final.Skipped())
	}

	// Fig 4b: late (duplicate) frames jump at the crash.
	lateAtCrash := res.LateCum.At(crashAt+8*time.Second) - res.LateCum.At(crashAt)
	if lateAtCrash == 0 {
		t.Errorf("no duplicate frames after crash; takeover should retransmit the sync gap")
	}

	// Fig 4c: software occupancy oscillates at a healthy mean in steady
	// state, drops to ~0 at the crash, and recovers.
	steady := mean(window(res.SWOccupancy, 20*time.Second, 35*time.Second))
	if steady < 10 || steady > 37 {
		t.Errorf("steady-state software occupancy mean = %.1f, want ≈ 23", steady)
	}
	minAtCrash := slices.Min(window(res.SWOccupancy, crashAt, crashAt+4*time.Second))
	if minAtCrash > 3 {
		t.Errorf("software occupancy only fell to %.0f at crash, want ≈ 0", minAtCrash)
	}
	recovered := mean(window(res.SWOccupancy, crashAt+15*time.Second, crashAt+20*time.Second))
	if recovered < 10 {
		t.Errorf("software occupancy did not recover after crash: %.1f", recovered)
	}

	// Fig 4d: hardware buffer fills early and dips (but not to zero) at
	// the crash.
	hwMax := slices.Max(res.HWOccupancy.Values)
	if hwMax < 200*1024 {
		t.Errorf("hardware buffer peak = %.0f bytes, want near 240KB", hwMax)
	}
	hwAtCrash := slices.Min(window(res.HWOccupancy, crashAt, crashAt+4*time.Second))
	if hwAtCrash <= 0 {
		t.Errorf("hardware buffer drained to zero at crash; want ≈ 3/4 capacity")
	}
	if hwAtCrash > 0.95*hwMax {
		t.Errorf("hardware buffer barely dipped at crash (%.0f of %.0f)", hwAtCrash, hwMax)
	}

	// Smoothness: bounded display stalls across the whole run ("not
	// noticeable to a human observer"): no sustained freeze longer than
	// half a second of display time.
	if res.StallsCum.Last() > 40 {
		t.Errorf("%v display stalls, playback not smooth", res.StallsCum.Last())
	}
	if res.Final.MaxStallRun > 15 {
		t.Errorf("longest freeze = %d ticks (>0.5s), noticeable to a human observer", res.Final.MaxStallRun)
	}
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

// firstTimeAbove returns when HWOccupancy first exceeds frac of its max.
func firstTimeAbove(res *Result, frac float64) time.Duration {
	max := slices.Max(res.HWOccupancy.Values)
	for i, v := range res.HWOccupancy.Values {
		if v >= frac*max {
			return res.HWOccupancy.Time(i)
		}
	}
	return -1
}

// TestFig5WANShape checks Figure 5: on a lossy WAN skipped frames grow
// steadily (message loss) and overflow discards appear after emergencies.
func TestFig5WANShape(t *testing.T) {
	sc := WANScenario(1)
	sc.Record = Skipped | Late | Overflow | Stalls
	res := Run(sc)
	lbAt, crashAt := fig5LBAt, fig5CrashAt

	t.Logf("final counters: %+v", res.Final)
	t.Logf("skipped end=%v overflow end=%v late end=%v stalls=%v",
		res.SkippedCum.Last(), res.OverflowCum.Last(), res.LateCum.Last(), res.StallsCum.Last())
	t.Logf("skipped at lb=%v at crash=%v", res.SkippedCum.At(lbAt), res.SkippedCum.At(crashAt))

	// Loss must cause ongoing skips (unlike the LAN).
	if res.Final.GapSkipped == 0 {
		t.Errorf("no loss-driven skips on a 0.5%% lossy WAN")
	}
	// Steady growth: skips in the quiet middle window too, not only at
	// events.
	quiet := res.SkippedCum.At(20*time.Second) - res.SkippedCum.At(10*time.Second)
	if quiet == 0 {
		t.Errorf("no skipped frames during quiet period; loss should show steadily")
	}
	// The client still plays the movie: the vast majority of frames
	// display.
	if res.Final.Displayed < 2300 {
		t.Errorf("displayed only %d of ~2700 frames on WAN", res.Final.Displayed)
	}
	if res.Final.Skipped() > 400 {
		t.Errorf("skipped %d frames; WAN quality collapsed", res.Final.Skipped())
	}
}

// TestTakeoverTime reproduces Table T: crash takeover on a LAN completes
// in about half a second (failure-detection dominated).
func TestTakeoverTime(t *testing.T) {
	var total time.Duration
	const trials = 5
	for seed := int64(1); seed <= trials; seed++ {
		d := TakeoverTrial(seed)
		t.Logf("trial %d: takeover = %v", seed, d)
		if d <= 0 {
			t.Fatalf("trial %d: no takeover detected", seed)
		}
		if d > 2*time.Second {
			t.Errorf("trial %d: takeover took %v, want ≲ 1s", seed, d)
		}
		total += d
	}
	avg := total / trials
	t.Logf("average takeover: %v", avg)
	if avg > 1200*time.Millisecond {
		t.Errorf("average takeover %v, paper reports ≈ 0.5s", avg)
	}
}

// TestScenarioDeterminism: the same seed must produce identical results.
func TestScenarioDeterminism(t *testing.T) {
	sc := LANScenario(7)
	sc.Record = Skipped | Late
	a, b := Run(sc), Run(sc)
	if a.Final != b.Final {
		t.Fatalf("same seed, different counters:\n%+v\n%+v", a.Final, b.Final)
	}
	if a.SkippedCum.Last() != b.SkippedCum.Last() || a.LateCum.Last() != b.LateCum.Last() {
		t.Fatal("same seed, different series")
	}
}

// TestSeedSensitivity: different seeds should still satisfy the LAN shape
// (stability of the reproduction, not a fluke of one seed).
func TestSeedSensitivity(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		res := Run(LANScenario(seed))
		if res.Final.Displayed < 2300 {
			t.Errorf("seed %d: displayed %d frames", seed, res.Final.Displayed)
		}
		if res.Final.Skipped() > 40 {
			t.Errorf("seed %d: skipped %d frames", seed, res.Final.Skipped())
		}
		if res.Final.OverflowDroppedI != 0 {
			t.Errorf("seed %d: dropped %d I frames", seed, res.Final.OverflowDroppedI)
		}
	}
}

// TestDuplicatedDatagramsTolerated: a LAN that delivers 30 % of all
// datagrams twice costs the viewer nothing it can see. The buffer rejects
// duplicate frames and gcs its duplicate messages, so the Figure 4 run never
// stalls, discards on overflow exactly what it discards without duplication
// (no I frame), and displays exactly what it displays without duplication.
func TestDuplicatedDatagramsTolerated(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		clean := Run(LANScenario(seed))
		sc := LANScenario(seed)
		sc.Profile.Duplicate = 0.3
		dup := Run(sc)
		t.Logf("seed %d: displayed %d/%d, overflow %d/%d, flow sent %d/%d (clean/duplicated)", seed,
			clean.Final.Displayed, dup.Final.Displayed, clean.Final.OverflowDropped, dup.Final.OverflowDropped,
			clean.ClientStats.FlowSent, dup.ClientStats.FlowSent)
		if dup.Final.Stalls != 0 {
			t.Errorf("seed %d: %d stalls under duplication", seed, dup.Final.Stalls)
		}
		if dup.Final.OverflowDroppedI != 0 {
			t.Errorf("seed %d: %d I frames dropped on overflow under duplication", seed, dup.Final.OverflowDroppedI)
		}
		if dup.Final.OverflowDropped != clean.Final.OverflowDropped {
			t.Errorf("seed %d: %d frames dropped on overflow under duplication, %d without",
				seed, dup.Final.OverflowDropped, clean.Final.OverflowDropped)
		}
		if dup.Final.Displayed != clean.Final.Displayed {
			t.Errorf("seed %d: displayed %d frames under duplication, %d without", seed, dup.Final.Displayed, clean.Final.Displayed)
		}
	}
}

// TestReplicationLosesNoFrame pins FAULTS.md's first row: Tbl K's
// replication rows (k = 3 through two sequential crashes, k = 2 through
// one) lose no frame. The seeds are the first 21 of 1–520 on which they
// did lose frames, to P/B overflow 9–11 s after a crash, while §4.1's
// lockout made the server ignore a full client's decreases; `make
// k3-sweep` checks all 520.
func TestReplicationLosesNoFrame(t *testing.T) {
	for _, seed := range []int64{4, 5, 7, 13, 14, 19, 20, 21, 22, 23, 25, 28, 31, 35, 37, 39, 42, 50, 52, 53, 56} {
		tbl, err := TableByID("faults", seed)
		if err != nil {
			t.Fatal(err)
		}
		lost := slices.Index(tbl.Header, "frames lost")
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row[0], "VoD replication") && row[lost] != "0" {
				t.Errorf("seed %d: %s, failures %s: %s frames lost", seed, row[0], row[1], row[lost])
			}
		}
	}
}

// TestRecordIsObservationOnly: what a run records changes what it returns,
// never what happens in it. The LAN crash scenario recording every signal,
// a subset and none ends with the same counters; each recorded series
// matches the all-signals run value for value, and the others are nil.
func TestRecordIsObservationOnly(t *testing.T) {
	series := []struct {
		sig Signals
		get func(*Result) *metrics.Series
	}{
		{Skipped, func(r *Result) *metrics.Series { return r.SkippedCum }},
		{Late, func(r *Result) *metrics.Series { return r.LateCum }},
		{Overflow, func(r *Result) *metrics.Series { return r.OverflowCum }},
		{Stalls, func(r *Result) *metrics.Series { return r.StallsCum }},
		{SW, func(r *Result) *metrics.Series { return r.SWOccupancy }},
		{HW, func(r *Result) *metrics.Series { return r.HWOccupancy }},
		{Combined, func(r *Result) *metrics.Series { return r.Combined }},
		{Serving, func(r *Result) *metrics.Series { return r.ServingServer }},
		{Video, func(r *Result) *metrics.Series { return r.VideoBytesCum }},
	}
	var all Signals
	for _, s := range series {
		all |= s.sig
	}
	run := func(rec Signals) *Result {
		sc := LANScenario(1)
		sc.Record = rec
		return Run(sc)
	}
	full := run(all)
	for _, rec := range []Signals{all, Skipped | HW | Serving, 0} {
		res := run(rec)
		if res.Final != full.Final || res.ClientStats != full.ClientStats || !maps.Equal(res.ServerStats, full.ServerStats) {
			t.Errorf("record %#x: counters differ from the all-signals run:\n%+v %+v\n%+v %+v",
				rec, res.Final, res.ClientStats, full.Final, full.ClientStats)
		}
		for id, reg := range full.Obs {
			if !reflect.DeepEqual(res.Obs[id].Snapshot().Counters, reg.Snapshot().Counters) {
				t.Errorf("record %#x: %s obs counters differ from the all-signals run", rec, id)
			}
		}
		for _, s := range series {
			got, want := s.get(res), s.get(full)
			switch {
			case rec&s.sig == 0:
				if got != nil {
					t.Errorf("record %#x: unrecorded signal %#x sampled", rec, s.sig)
				}
			case got == nil || got.Start != want.Start || got.Step != want.Step || !slices.Equal(got.Values, want.Values):
				t.Errorf("record %#x: signal %#x differs from the all-signals run", rec, s.sig)
			}
		}
	}
}
