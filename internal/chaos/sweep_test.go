package chaos_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/chaos"
)

// TestSweepEquivalence is the determinism contract's guard: the same seeds
// executed sequentially (workers=1) and through an 8-worker pool must
// produce byte-identical reports — schedules, counters, verdicts, all of
// it. Parallelism is across runs, never inside one; if this test ever
// fails, some package-level state leaked between concurrent runs.
func TestSweepEquivalence(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	ctx := context.Background()
	seq, _, err := chaos.Sweep(ctx, 1, n, 1, nil, nil)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	par, _, err := chaos.Sweep(ctx, 1, n, 8, nil, nil)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	for i := range seq {
		var a, b bytes.Buffer
		seq[i].Write(&a)
		par[i].Write(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("seed %d diverged between workers=1 and workers=8:\n--- sequential ---\n%s--- parallel ---\n%s",
				seq[i].Seed, a.String(), b.String())
		}
	}
}

// TestSweepReplayIdentity is the replay contract TestSweepEquivalence does
// not cover (it compares sweeps with sweeps): a seed run alone through
// chaos.Execute — which generates the title for itself — reports byte for byte
// what the same seed reports inside a sweep, where every seed streams the
// sweep's one shared Movie. The seeds must include a cold restart (the
// restarted server fetches its own copy of the title from a peer) and a
// seek (random access into the shared packet table).
func TestSweepReplayIdentity(t *testing.T) {
	const first, n = 1, 6
	ctx := context.Background()
	render := func(r *chaos.Report) string {
		var b bytes.Buffer
		r.Write(&b)
		return b.String()
	}
	var alone [n]string
	kinds := map[chaos.Kind]bool{}
	for i := range alone {
		rep := chaos.Execute(chaos.NewPlan(first + int64(i)))
		alone[i] = render(rep)
		for _, op := range rep.Plan.Ops {
			kinds[op.Kind] = true
		}
	}
	if !kinds[chaos.KindRestart] || !kinds[chaos.KindSeek] {
		t.Fatalf("seeds %d..%d no longer schedule both a cold restart and a seek; pick seeds that do", first, first+n-1)
	}
	for _, workers := range []int{1, 8} {
		swept, _, err := chaos.Sweep(ctx, first, n, workers, nil, nil)
		if err != nil {
			t.Fatalf("sweep workers=%d: %v", workers, err)
		}
		for i, rep := range swept {
			if got := render(rep); got != alone[i] {
				t.Errorf("seed %d inside a workers=%d sweep differs from chaos.Execute:\n--- sweep ---\n%s--- alone ---\n%s",
					rep.Seed, workers, got, alone[i])
			}
		}
	}
}

// TestSweepStreamsInOrder: the onReport callback sees reports in seed
// order — a contiguous prefix, never an out-of-order or duplicate report —
// regardless of which worker finishes first.
func TestSweepStreamsInOrder(t *testing.T) {
	const n = 10
	var streamed []int64
	reports, sum, err := chaos.Sweep(context.Background(), 1, n, 8, nil,
		func(r *chaos.Report) { streamed = append(streamed, r.Seed) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != n {
		t.Fatalf("summary says %d jobs, want %d", sum.Jobs, n)
	}
	if len(streamed) != n {
		t.Fatalf("streamed %d reports, want %d", len(streamed), n)
	}
	for i, s := range streamed {
		if s != int64(i+1) {
			t.Fatalf("streamed seeds %v: not in seed order", streamed)
		}
	}
	for i, r := range reports {
		if r.Seed != int64(i+1) {
			t.Fatalf("reports[%d].Seed = %d", i, r.Seed)
		}
	}
}

// TestFailedSeedsSorted: FailedSeeds picks the violating seeds out of a
// sweep's reports, which come back in seed order, so the seeds do too. Nil
// reports (panicked jobs) are skipped, and class reports work the same way.
func TestFailedSeedsSorted(t *testing.T) {
	mk := func(seed int64, ok bool) *chaos.Report {
		r := &chaos.Report{Seed: seed}
		if !ok {
			r.Violations = append(r.Violations, fmt.Sprintf("synthetic violation for seed %d", seed))
		}
		return r
	}
	reports := []*chaos.Report{
		mk(1, false), nil, mk(3, false), mk(4, true), mk(5, false),
	}
	if got, want := chaos.FailedSeeds(reports), []int64{1, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("failed seeds %v, want %v", got, want)
	}
	classes := []*chaos.ClassReport{{Seed: 1}, {Seed: 2, Violations: []string{"synthetic"}}, nil}
	if got, want := chaos.FailedSeeds(classes), []int64{2}; !slices.Equal(got, want) {
		t.Fatalf("failed class seeds %v, want %v", got, want)
	}
}
