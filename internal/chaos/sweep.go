package chaos

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Sweep executes the schedules for seeds first..first+n-1 across a bounded
// worker pool (workers <= 0 means all cores) and returns the reports in
// seed order. Each seed builds its own cluster, clock and network, so the
// reports are byte-identical to running the same seeds sequentially —
// parallelism only changes the wall-clock time (see TestSweepEquivalence).
//
// The sweep keeps going past invariant violations (a violation lives in
// its Report, not in an error); only a panicking seed or context
// cancellation surfaces as an error, tagged with the seed that caused it.
//
// onReport, when non-nil, is called once per report in *seed order* as a
// contiguous prefix of finished seeds becomes available, so a CLI can
// stream output while later seeds still run. reg, when non-nil, receives
// the sweep summary counters and trace event.
func Sweep(ctx context.Context, first int64, n, workers int, reg *obs.Registry, onReport func(*Report)) ([]*Report, sweep.Summary, error) {
	// One title for the whole sweep: Movie and its lazily built packet
	// table are immutable and safe for concurrent workers, and it is the
	// same title Run generates for itself, so a single-seed replay matches.
	movie := feature()
	return sweepSeeds(ctx, first, n, workers, reg, onReport, func(seed int64) *Report {
		return execute(NewPlan(seed), movie)
	})
}

// SweepClasses runs the traffic-class overload trial for seeds
// first..first+n-1 the way Sweep runs schedules.
func SweepClasses(ctx context.Context, first int64, n, workers int, reg *obs.Registry, onReport func(*ClassReport)) ([]*ClassReport, sweep.Summary, error) {
	return sweepSeeds(ctx, first, n, workers, reg, onReport, runClasses)
}

// sweepSeeds is Sweep over any kind of report: run makes seed's report.
func sweepSeeds[R any](ctx context.Context, first int64, n, workers int, reg *obs.Registry, onReport func(*R), run func(seed int64) *R) ([]*R, sweep.Summary, error) {
	reports := make([]*R, n)
	opts := sweep.Options{Workers: workers, FirstSeed: first, Obs: reg}
	if onReport != nil {
		opts.OnResult = func(i int, seed int64, err error) {
			// A panicked seed has no report; its failure comes back
			// through the sweep error with the seed attached.
			if r := reports[i]; r != nil {
				onReport(r)
			}
		}
	}
	_, sum, err := sweep.RunOpts(ctx, n, opts, func(i int, seed int64) (struct{}, error) {
		reports[i] = run(seed)
		return struct{}{}, nil
	})
	return reports, sum, err
}

// FailedSeeds returns the seeds whose reports violated an invariant, in the
// order of reports: seed order for a sweep's. Nil reports (jobs that
// panicked or never ran) are skipped; those seeds surface through the
// sweep error instead.
func FailedSeeds[R interface {
	*Report | *ClassReport
	verdict() (seed int64, ok bool)
}](reports []R) []int64 {
	var seeds []int64
	for _, r := range reports {
		if r == nil {
			continue
		}
		if seed, ok := r.verdict(); !ok {
			seeds = append(seeds, seed)
		}
	}
	return seeds
}
