package chaos

import (
	"context"
	"sort"

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
	reports := make([]*Report, n)
	opts := sweep.Options{
		Workers:   workers,
		FirstSeed: first,
		KeepGoing: true,
		Obs:       reg,
	}
	if onReport != nil {
		opts.OnResult = func(i int, seed int64, err error) {
			// A panicked seed has no report; its failure comes back
			// through the sweep error with the seed attached.
			if r := reports[i]; r != nil {
				onReport(r)
			}
		}
	}
	// One title for the whole sweep: Movie and its lazily built packet
	// table are immutable and safe for concurrent workers, and it is the
	// same title Run generates for itself, so a single-seed replay matches.
	movie := feature()
	_, sum, err := sweep.RunOpts(ctx, n, opts, func(i int, seed int64) (struct{}, error) {
		reports[i] = execute(NewPlan(seed), movie)
		return struct{}{}, nil
	})
	return reports, sum, err
}

// FailedSeeds returns the seeds whose reports violated an invariant,
// sorted ascending — stable however the sweep was scheduled. Nil reports
// (jobs that panicked or never ran) are skipped; those seeds surface
// through the sweep error instead.
func FailedSeeds(reports []*Report) []int64 {
	var seeds []int64
	for _, r := range reports {
		if r != nil && !r.OK() {
			seeds = append(seeds, r.Seed)
		}
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	return seeds
}
