// Package sweep is the deterministic parallel run engine: it executes N
// independent, seeded simulation jobs across a bounded worker pool and
// hands the results back in job order, byte-identical to the sequential
// loop it replaces.
//
// The determinism contract is strict and simple: parallelism is *across*
// runs, never inside one. Each job builds its own virtual clock, simulated
// network and observability registries from its seed, so job i's result is
// a pure function of (i, seed) — the worker count and scheduling order can
// change which job finishes first, but never what any job computes. The
// figures, tables and chaos verdicts produced through this package are
// therefore identical at workers=1 and workers=GOMAXPROCS (the equivalence
// tests in internal/chaos and internal/sim pin this forever).
//
// A failing job never stops the others: every job runs, and each failure
// is reported with its index and seed, so a chaos crash is replayable. A
// panicking job is contained the same way, its panic captured with the
// stack as that job's error.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// Func computes one job: i is the job index (0-based), seed the job's
// simulation seed (Options.FirstSeed + i). It must not share mutable state
// with other jobs — everything it touches should be derived from its
// arguments.
type Func[T any] func(i int, seed int64) (T, error)

// Options configures a sweep.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// The pool is additionally clamped to the job count.
	Workers int
	// FirstSeed is the seed of job 0 (default 1); job i runs with
	// FirstSeed + i.
	FirstSeed int64
	// OnResult, when non-nil, is called once per finished job, serialized
	// under the sweep's lock and in job order: job i's callback fires once
	// jobs 0..i have all finished, so a caller can stream results while
	// later jobs still run. results[i], and anything job i wrote, is
	// visible when the callback for job i fires.
	OnResult func(i int, seed int64, err error)
	// Obs, when non-nil, receives the sweep summary: counters
	// "sweep.jobs", "sweep.failures" and a "sweep.done" trace event with
	// wall/CPU time and speedup.
	Obs *obs.Registry
}

// Summary reports what a sweep did and what the parallelism bought.
type Summary struct {
	Jobs    int // jobs that ran to completion (ok or failed)
	Failed  int // jobs that returned an error or panicked
	Workers int // resolved worker count
	// Wall is the sweep's wall-clock time. CPU is the process CPU time
	// consumed during the sweep (rusage delta, so oversubscribed workers
	// cannot inflate it; off unix it falls back to summed per-job elapsed
	// time). CPU/Wall is the achieved speedup: ≈min(Workers, cores) when
	// jobs are uniform and the machine keeps up, ≈1 on a single core.
	Wall, CPU time.Duration
}

// Speedup is the effective across-run parallel speedup (CPU time / wall
// time); 0 when nothing ran.
func (s Summary) Speedup() float64 {
	if s.Wall <= 0 || s.CPU <= 0 {
		return 0
	}
	return s.CPU.Seconds() / s.Wall.Seconds()
}

// String renders the summary for CLI output.
func (s Summary) String() string {
	return fmt.Sprintf("%d jobs, %d failed, %d workers, wall %s, cpu %s, speedup %.1fx",
		s.Jobs, s.Failed, s.Workers, s.Wall.Round(time.Millisecond),
		s.CPU.Round(time.Millisecond), s.Speedup())
}

// RunOpts executes jobs 0..jobs-1 across a bounded worker pool and returns
// the results in job order (results[i] is job i's value; failed or unrun
// jobs leave the zero value). Every job runs, whatever the others return.
// The returned error is nil when every job succeeded; otherwise it joins,
// in job order, one "job i (seed s): …" error per failure, each wrapping
// what the job returned or a "panic: …" error with the stack; and it wraps
// ctx.Err() when cancellation stopped the sweep before all jobs ran.
func RunOpts[T any](ctx context.Context, jobs int, opts Options, fn Func[T]) ([]T, Summary, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	firstSeed := opts.FirstSeed
	if firstSeed == 0 {
		firstSeed = 1
	}

	results := make([]T, jobs)
	sum := Summary{Workers: workers}
	if jobs == 0 {
		finish(&sum, opts.Obs, 0)
		return results, sum, ctx.Err()
	}

	var (
		mu      sync.Mutex
		next    int // index of the next job to dispatch, under mu
		errs    = make([]error, jobs)
		failed  int
		elapsed time.Duration // summed per-job elapsed time (CPU fallback)
		ran     int
		wg      sync.WaitGroup
		// done holds finished jobs until every earlier job has finished
		// too; reported counts the jobs OnResult has seen.
		done     []bool
		reported int
	)
	if opts.OnResult != nil {
		done = make([]bool, jobs)
	}
	start := time.Now()
	cpuBefore, haveCPU := cpuTime()

	runOne := func(i int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
			}
		}()
		var v T
		v, err = fn(i, firstSeed+int64(i))
		if err == nil {
			results[i] = v
		}
		return err
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= jobs || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				jobStart := time.Now()
				err := runOne(i)
				took := time.Since(jobStart)

				mu.Lock()
				ran++
				elapsed += took
				if err != nil {
					failed++
					errs[i] = fmt.Errorf("job %d (seed %d): %w", i, firstSeed+int64(i), err)
				}
				if opts.OnResult != nil {
					done[i] = true
					// Jobs are dispatched in index order, so every finished
					// job is reported by the time the last one finishes.
					for ; reported < jobs && done[reported]; reported++ {
						opts.OnResult(reported, firstSeed+int64(reported), errs[reported])
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sum.Jobs = ran
	sum.Failed = failed
	sum.Wall = time.Since(start)
	sum.CPU = elapsed
	if haveCPU {
		if cpuAfter, ok := cpuTime(); ok && cpuAfter > cpuBefore {
			sum.CPU = cpuAfter - cpuBefore
		}
	}
	finish(&sum, opts.Obs, failed)

	err := errors.Join(errs...)
	// Report cancellation only when it actually cut the sweep short.
	if ctx.Err() != nil && ran < jobs {
		err = errors.Join(fmt.Errorf("sweep: canceled after %d/%d jobs: %w", ran, jobs, ctx.Err()), err)
	}
	return results, sum, err
}

// finish publishes the summary to the optional obs registry.
func finish(sum *Summary, reg *obs.Registry, failed int) {
	if reg == nil {
		return
	}
	reg.Counter("sweep.jobs").Add(uint64(sum.Jobs))
	reg.Counter("sweep.failures").Add(uint64(failed))
	reg.Emit(obs.SweepDone, "", "", int64(sum.Jobs), int64(failed))
}
