package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestOrderedResults: results come back indexed by job, not by completion
// order, whatever the worker count.
func TestOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		results, err := sweep.Run(context.Background(), 20, workers,
			func(i int, seed int64) (string, error) {
				return fmt.Sprintf("job-%d-seed-%d", i, seed), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if want := fmt.Sprintf("job-%d-seed-%d", i, i+1); r != want {
				t.Fatalf("workers=%d: results[%d] = %q, want %q", workers, i, r, want)
			}
		}
	}
}

// TestZeroJobs: an empty sweep returns an empty slice and no error.
func TestZeroJobs(t *testing.T) {
	results, sum, err := sweep.RunOpts(context.Background(), 0, sweep.Options{}, //
		func(i int, seed int64) (int, error) { return 0, nil })
	if err != nil || len(results) != 0 {
		t.Fatalf("zero jobs: results=%v err=%v", results, err)
	}
	if sum.Jobs != 0 || sum.Failed != 0 {
		t.Fatalf("zero jobs summary: %+v", sum)
	}
}

// TestWorkersExceedJobs: the pool clamps to the job count; every job still
// runs exactly once.
func TestWorkersExceedJobs(t *testing.T) {
	var calls atomic.Int64
	results, sum, err := sweep.RunOpts(context.Background(), 3, sweep.Options{Workers: 64},
		func(i int, seed int64) (int64, error) {
			calls.Add(1)
			return seed, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d jobs, want 3", calls.Load())
	}
	if sum.Workers != 3 {
		t.Fatalf("summary workers = %d, want clamp to 3", sum.Workers)
	}
	for i, r := range results {
		if r != int64(i+1) {
			t.Fatalf("results[%d] = %d, want seed %d", i, r, i+1)
		}
	}
}

// TestPanicCapture: a panicking seed reports as that job's failure —
// carrying the seed for replay — while every other job completes.
func TestPanicCapture(t *testing.T) {
	results, sum, err := sweep.RunOpts(context.Background(), 10,
		sweep.Options{Workers: 4, KeepGoing: true},
		func(i int, seed int64) (int64, error) {
			if seed == 7 {
				panic("seed 7 exploded")
			}
			return seed, nil
		})
	var errs sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want sweep.Errors, got %T: %v", err, err)
	}
	if len(errs) != 1 || errs[0].Seed != 7 || errs[0].Index != 6 {
		t.Fatalf("failure set = %v, want only seed 7", errs)
	}
	var pe *sweep.PanicError
	if !errors.As(errs[0].Err, &pe) {
		t.Fatalf("job error is %T, want PanicError", errs[0].Err)
	}
	if sum.Jobs != 10 || sum.Failed != 1 {
		t.Fatalf("summary %+v, want 10 ran / 1 failed", sum)
	}
	for i, r := range results {
		switch {
		case i == 6 && r != 0:
			t.Fatalf("failed job left a non-zero result %d", r)
		case i != 6 && r != int64(i+1):
			t.Fatalf("results[%d] = %d despite unrelated panic", i, r)
		}
	}
}

// TestFailFast: the first error stops dispatching new jobs.
func TestFailFast(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, sum, err := sweep.RunOpts(context.Background(), 1000, sweep.Options{Workers: 2},
		func(i int, seed int64) (int, error) {
			calls.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("fail-fast still ran all %d jobs", n)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestKeepGoingCollectsAll: keep-going runs every job and returns the
// failures sorted by index with sorted seeds.
func TestKeepGoingCollectsAll(t *testing.T) {
	var calls atomic.Int64
	_, sum, err := sweep.RunOpts(context.Background(), 30,
		sweep.Options{Workers: 4, KeepGoing: true},
		func(i int, seed int64) (int, error) {
			calls.Add(1)
			if seed%10 == 0 {
				return 0, fmt.Errorf("bad seed %d", seed)
			}
			return i, nil
		})
	if calls.Load() != 30 {
		t.Fatalf("keep-going ran %d/30 jobs", calls.Load())
	}
	var errs sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want sweep.Errors, got %v", err)
	}
	wantSeeds := []int64{10, 20, 30}
	var got []int64
	for _, je := range errs {
		got = append(got, je.Seed)
	}
	if !slices.Equal(got, wantSeeds) {
		t.Fatalf("failed seeds %v, want %v", got, wantSeeds)
	}
	if sum.Failed != 3 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestContextCancelMidSweep: cancellation stops dispatch; in-flight jobs
// finish; the error wraps context.Canceled.
func TestContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, sum, err := sweep.RunOpts(ctx, 1000, sweep.Options{Workers: 2},
		func(i int, seed int64) (int, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Jobs >= 1000 {
		t.Fatalf("cancellation did not stop the sweep (%d jobs ran)", sum.Jobs)
	}
}

// TestProgressCallback: OnResult fires exactly once per job, serialized,
// in job order, and sees the job's error — even when later jobs finish
// first.
func TestProgressCallback(t *testing.T) {
	seen := make(map[int]bool)
	var failures int
	next := 0
	_, _, err := sweep.RunOpts(context.Background(), 50,
		sweep.Options{Workers: 8, KeepGoing: true,
			OnResult: func(i int, seed int64, err error) {
				// Serialized by the sweep lock: plain map access is the test.
				if seen[i] {
					t.Errorf("job %d reported twice", i)
				}
				seen[i] = true
				if i != next {
					t.Errorf("job %d reported when job %d was due", i, next)
				}
				next = i + 1
				if err != nil {
					failures++
				}
			}},
		func(i int, seed int64) (int, error) {
			// Early jobs run longest, so they finish after later ones.
			time.Sleep(time.Duration(50-i) * 100 * time.Microsecond)
			if i == 13 {
				return 0, errors.New("unlucky")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("want failure error")
	}
	if len(seen) != 50 || failures != 1 {
		t.Fatalf("progress saw %d jobs / %d failures, want 50 / 1", len(seen), failures)
	}
}

// TestObsSummary: the optional registry receives job/failure counters and
// the sweep.done trace event.
func TestObsSummary(t *testing.T) {
	reg := obs.NewRegistry("bench", nil)
	_, _, _ = sweep.RunOpts(context.Background(), 8,
		sweep.Options{Workers: 4, KeepGoing: true, Obs: reg},
		func(i int, seed int64) (int, error) {
			if i == 2 {
				return 0, errors.New("x")
			}
			return i, nil
		})
	snap := reg.Snapshot()
	if snap.Counters["sweep.jobs"] != 8 || snap.Counters["sweep.failures"] != 1 {
		t.Fatalf("obs counters = %v", snap.Counters)
	}
	found := false
	for _, ev := range snap.Events() {
		if ev.Kind == "sweep.done" {
			found = true
		}
	}
	if !found {
		t.Fatal("no sweep.done event traced")
	}
}

// TestFirstSeed: FirstSeed offsets the seed handed to every job.
func TestFirstSeed(t *testing.T) {
	results, _, err := sweep.RunOpts(context.Background(), 3,
		sweep.Options{Workers: 2, FirstSeed: 100},
		func(i int, seed int64) (int64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range results {
		if s != int64(100+i) {
			t.Fatalf("job %d got seed %d, want %d", i, s, 100+i)
		}
	}
}
