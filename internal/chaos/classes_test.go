package chaos_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaos"
)

// TestClassInvariantSweep is the traffic-class chaos harness: many seeded
// flash-crowd overload trials (even seeds also crash and restart the
// primary mid-crowd), each checked for the degrade-before-refuse contract
// — reserved viewers ride through with zero stalls and zero refusals
// while best-effort load is degraded, shed and refused but never
// deadlocked. The seeds fan across all cores through the sweep engine,
// the same path `vodbench -classes` takes; a failing seed replays exactly
// with `vodbench -classes -seed N`.
func TestClassInvariantSweep(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	reports, sum, err := chaos.SweepClasses(context.Background(), 1, n, 0, nil, nil)
	if err != nil {
		t.Fatalf("sweep error (panicked seed?): %v", err)
	}
	for _, rep := range reports {
		if len(rep.Violations) != 0 {
			var buf bytes.Buffer
			rep.Write(&buf)
			t.Errorf("class invariant violations:\n%s", buf.String())
		}
	}
	if failed := chaos.FailedSeeds(reports); len(failed) > 0 {
		t.Errorf("failed seeds: %v", failed)
	}
	t.Logf("class sweep: %s", sum)
}

// TestClassSweepEquivalence: the class sweep inherits the determinism
// contract — workers=1 and workers=8 must produce byte-identical reports
// for the same seeds.
func TestClassSweepEquivalence(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 4
	}
	ctx := context.Background()
	seq, _, err := chaos.SweepClasses(ctx, 1, n, 1, nil, nil)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	par, _, err := chaos.SweepClasses(ctx, 1, n, 8, nil, nil)
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
