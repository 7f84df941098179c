package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/chaos"
)

// TestAllocsSweepSharesFeature pins the per-sweep sharing: every schedule of
// a chaos sweep streams the one Movie the sweep generated, so the packet
// table behind it (≈ 15.9 MB for the 90 s title) is materialised once per
// sweep, not once per seed. What a seed still allocates is its own cluster
// plus, where its schedule cold-restarts a server, that server's fetched
// copy. A change that quietly goes back to one title per seed lands at
// ≈ 16 MB per seed and fails here.
func TestAllocsSweepSharesFeature(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const seeds, budget = 16, 6 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reports, _, err := chaos.Sweep(context.Background(), 1, seeds, 1, nil, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != seeds {
		t.Fatalf("sweep returned %d reports, want %d", len(reports), seeds)
	}
	if perSeed := (after.TotalAlloc - before.TotalAlloc) / seeds; perSeed > budget {
		t.Errorf("%d-seed sweep allocated %d bytes per seed, want <= %d: is each seed generating its own title again?", seeds, perSeed, budget)
	}
}
