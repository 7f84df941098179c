package chaos_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestClusterMonkey is the full-stack chaos harness: dozens of seeded fault
// schedules against a live cluster, each checked for the paper's
// service-level invariants. The seeds fan across all cores through the
// sweep engine — the same path `vodbench -chaos` takes — and a failing
// seed replays exactly with `vodbench -chaos -seed N`.
func TestClusterMonkey(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 50
	}
	reports, sum, err := chaos.Sweep(context.Background(), 1, n, 0, nil, nil)
	if err != nil {
		t.Fatalf("sweep error (panicked seed?): %v", err)
	}
	for _, rep := range reports {
		if !rep.OK() {
			var buf bytes.Buffer
			rep.Write(&buf)
			t.Errorf("invariant violations:\n%s", buf.String())
		}
	}
	for _, seed := range regressionSeeds {
		if rep := chaos.Execute(chaos.NewPlan(seed)); !rep.OK() {
			reports = append(reports, rep)
			var buf bytes.Buffer
			rep.Write(&buf)
			t.Errorf("invariant violations:\n%s", buf.String())
		}
	}
	if failed := chaos.FailedSeeds(reports); len(failed) > 0 {
		t.Errorf("failed seeds: %v", failed)
	}
	t.Logf("monkey sweep: %s", sum)
}

// regressionSeeds are seeds beyond the swept range that once violated an
// invariant. These fourteen share one shape: a cold-restarted server fetched
// from a dead peer first, and the title's last other holder died before the
// transfer timed out.
var regressionSeeds = []int64{2897, 3125, 4091, 6249, 10293, 18903, 21227, 22672,
	22797, 23405, 23878, 24065, 24252, 25019}

// TestDisplayedShare holds the service the chaos schedules leave the viewer:
// over seeds 1-400, at least 92% of the display ticks that fell due showed a
// frame. A starved viewer that reopens to the server its session view names,
// the moment that view forms, is what keeps stalls after a heal short; a
// server that pauses while the viewer is out of its session view, and resumes
// where the viewer was, is what keeps the heal from skipping frames.
func TestDisplayedShare(t *testing.T) {
	if testing.Short() {
		t.Skip("400 chaos schedules; skipped in -short")
	}
	reports, _, err := chaos.Sweep(context.Background(), 1, 400, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var displayed, due uint64
	for _, rep := range reports {
		displayed += rep.Displayed
		due += rep.Displayed + rep.GapSkipped + rep.Stalls
	}
	share := float64(displayed) / float64(due)
	t.Logf("displayed share over seeds 1-400: %.6f (%d of %d ticks)", share, displayed, due)
	if share < 0.92 {
		t.Errorf("displayed share %.4f over seeds 1-400, want >= 0.92", share)
	}
}

// TestPlanDeterministic: the same seed must always produce the same
// schedule — reproducibility is the whole point of the harness.
func TestPlanDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := chaos.NewPlan(seed)
		b := chaos.NewPlan(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d produced two different plans", seed)
		}
	}
}

// TestPlanConstraints checks the generator's structural guarantees across
// many seeds: ops sorted and inside the fault window, every partition
// paired with a heal, a final heal before the quiet tail, and targets drawn
// from the declared pool.
func TestPlanConstraints(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		plan := chaos.NewPlan(seed)
		if len(plan.Ops) == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
		var prev time.Duration
		partitions, heals := 0, 0
		for _, op := range plan.Ops {
			if op.At < prev {
				t.Fatalf("seed %d: ops not sorted (%v after %v)", seed, op.At, prev)
			}
			prev = op.At
			switch op.Kind {
			case chaos.KindPartition:
				partitions++
				if len(op.Groups) < 2 {
					t.Fatalf("seed %d: partition with %d groups", seed, len(op.Groups))
				}
			case chaos.KindHeal:
				heals++
			}
		}
		if heals < partitions+1 {
			t.Fatalf("seed %d: %d partitions but only %d heals", seed, partitions, heals)
		}
		last := plan.Ops[len(plan.Ops)-1]
		if last.Kind != chaos.KindHeal {
			t.Fatalf("seed %d: schedule does not end with a heal (%v)", seed, last)
		}
	}
}

// TestExecuteReproducible: executing the same plan twice yields identical
// reports (counters and all) — the property that makes a CI failure
// replayable on a developer machine.
func TestExecuteReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("two full executions; skipped in -short")
	}
	a := chaos.Execute(chaos.NewPlan(3))
	b := chaos.Execute(chaos.NewPlan(3))
	if a.Displayed != b.Displayed || a.Stalls != b.Stalls ||
		a.Reopens != b.Reopens || a.Takeovers != b.Takeovers || a.Owners != b.Owners {
		t.Fatalf("two runs of seed 3 diverged:\n%+v\n%+v", a, b)
	}
}
