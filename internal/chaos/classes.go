package chaos

import (
	"context"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// ClassReport is the outcome of one traffic-class overload trial: the
// seeded flash-crowd scenario plus the checked class invariants. Even
// seeds also crash and cold-restart the primary mid-crowd, so the sweep
// alternates between pure-overload and overload-plus-takeover runs.
type ClassReport struct {
	Seed       int64
	Restart    bool
	Res        sim.OverloadResult
	Violations []string
}

// OK reports whether every class invariant held.
func (r *ClassReport) OK() bool { return len(r.Violations) == 0 }

// Write renders the report (per-class counters, verdict).
func (r *ClassReport) Write(w io.Writer) {
	fmt.Fprintf(w, "classes seed %d (restart=%v):\n", r.Seed, r.Restart)
	fmt.Fprintf(w, "  reserved:    viewers=%d watching=%d displayed=%d stalls=%d refused=%d\n",
		r.Res.Reserved.Viewers, r.Res.Reserved.Watching, r.Res.Reserved.Displayed,
		r.Res.Reserved.Stalls, r.Res.Reserved.Refusals)
	fmt.Fprintf(w, "  best effort: viewers=%d watching=%d displayed=%d stalls=%d worst=%d refused=%d\n",
		r.Res.BestEffort.Viewers, r.Res.BestEffort.Watching, r.Res.BestEffort.Displayed,
		r.Res.BestEffort.Stalls, r.Res.BestEffort.WorstStall, r.Res.BestEffort.Refusals)
	fmt.Fprintf(w, "  server: admits=%d/%d refusals=%d/%d shed=%d degraded=%d\n",
		r.Res.Stats.AdmitsReserved, r.Res.Stats.AdmitsBestEffort,
		r.Res.Stats.RefusalsReserved, r.Res.Stats.RefusalsBestEffort,
		r.Res.Stats.ShedTokens, r.Res.Stats.DegradedFrames)
	if r.OK() {
		fmt.Fprintf(w, "  OK: all class invariants held\n")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// maxBestEffortFreeze bounds the longest tolerated best-effort stall run
// (display ticks — 600 is 20 virtual seconds at full rate). Degradation
// may stretch best-effort playback badly, but a freeze this long means
// the class has effectively deadlocked rather than degraded.
const maxBestEffortFreeze = 600

// runClasses executes the overload trial for one seed and checks the
// degrade-before-refuse contract:
//
//   - guarantee: reserved viewers never stall and are never refused — the
//     ladder sheds best-effort load first, at any cost to that class;
//   - liveness: best-effort playback keeps moving — degraded and throttled,
//     but never deadlocked (post-disruption progress, bounded freezes);
//   - sanity: the ladder actually engaged (frames were degraded), so a
//     passing run can't be an accidentally idle server.
func runClasses(seed int64) *ClassReport {
	r := &ClassReport{Seed: seed, Restart: seed%2 == 0}
	r.Res = sim.OverloadTrial(sim.OverloadConfig{Seed: seed, Restart: r.Restart})

	res, be := r.Res.Reserved, r.Res.BestEffort
	if res.Stalls != 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("reserved class stalled %d times (worst run %d ticks); the ladder must shed best-effort load first",
				res.Stalls, res.WorstStall))
	}
	if res.Refusals != 0 || r.Res.Stats.RefusalsReserved != 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("reserved opens refused (client saw %d, server counted %d) with best-effort sessions still sheddable",
				res.Refusals, r.Res.Stats.RefusalsReserved))
	}
	if res.Watching != res.Viewers {
		r.Violations = append(r.Violations,
			fmt.Sprintf("only %d/%d reserved viewers still watching or finished", res.Watching, res.Viewers))
	}
	if be.Finished < be.Viewers && be.Displayed <= r.Res.BestEffortProbe {
		r.Violations = append(r.Violations,
			fmt.Sprintf("best-effort class deadlocked: displayed stuck at %d since the 24s probe (%d)",
				be.Displayed, r.Res.BestEffortProbe))
	}
	if be.WorstStall > maxBestEffortFreeze {
		r.Violations = append(r.Violations,
			fmt.Sprintf("best-effort freeze of %d ticks exceeds the %d-tick degradation bound",
				be.WorstStall, maxBestEffortFreeze))
	}
	if r.Res.Stats.DegradedFrames == 0 {
		r.Violations = append(r.Violations,
			"overload ladder never engaged (no degraded frames) — trial did not exercise the contract")
	}
	return r
}

// SweepClasses runs runClasses for seeds first..first+n-1 across a bounded
// worker pool, mirroring Sweep: reports come back in seed order, invariant
// violations live in the reports, and only a panic or cancellation
// surfaces as an error. onReport, when non-nil, streams reports in seed
// order as a contiguous prefix finishes.
func SweepClasses(ctx context.Context, first int64, n, workers int, reg *obs.Registry, onReport func(*ClassReport)) ([]*ClassReport, sweep.Summary, error) {
	reports := make([]*ClassReport, n)
	opts := sweep.Options{
		Workers:   workers,
		FirstSeed: first,
		KeepGoing: true,
		Obs:       reg,
	}
	if onReport != nil {
		opts.OnResult = func(i int, seed int64, err error) {
			if r := reports[i]; r != nil {
				onReport(r)
			}
		}
	}
	_, sum, err := sweep.RunOpts(ctx, n, opts, func(i int, seed int64) (struct{}, error) {
		reports[i] = runClasses(seed)
		return struct{}{}, nil
	})
	return reports, sum, err
}

// FailedClassSeeds returns the seeds whose class reports violated an
// invariant, in seed order. Nil reports (panicked jobs) are skipped; those
// surface through the sweep error.
func FailedClassSeeds(reports []*ClassReport) []int64 {
	var seeds []int64
	for _, r := range reports {
		if r != nil && !r.OK() {
			seeds = append(seeds, r.Seed)
		}
	}
	return seeds
}
