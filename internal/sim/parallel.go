package sim

import (
	"context"
	"sync/atomic"

	"repro/internal/sweep"
)

// parallelism is the package's across-run worker bound for table and
// figure generation: 0 (the default) means all cores. It is a pure
// performance knob — results are byte-identical at any setting, because
// every fanned-out job builds its own clock, network and registries from
// its arguments (the sweep determinism contract, pinned by
// TestTableParallelEquivalence).
var parallelism atomic.Int32

// SetParallelism bounds the worker pool used when a table or figure set
// fans its independent trials across cores; n <= 0 restores the default
// (all cores). It only changes wall-clock time, never results.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// fanOut runs n independent jobs across the package worker bound and
// returns the results in job order. Jobs must be self-contained — they are
// simulation runs, deterministic in their inputs alone. A panicking job
// re-panics here with its seed context attached: the sequential loops this
// replaces panicked on programming errors too, and a half-generated table
// is worthless.
func fanOut[T any](n int, f func(i int) T) []T {
	results, _, err := sweep.RunOpts(context.Background(), n,
		sweep.Options{Workers: int(parallelism.Load()), KeepGoing: true},
		func(i int, _ int64) (T, error) { return f(i), nil })
	if err != nil {
		panic(err)
	}
	return results
}
