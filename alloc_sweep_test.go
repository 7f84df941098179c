package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/chaos"
)

// TestAllocsSweepSharesFeature pins what a chaos seed costs: every schedule
// of a sweep streams the one Movie the sweep generated, runs on the clock and
// network the previous seed released, and allocates its own cluster plus,
// where its schedule cold-restarts a server, that server's fetched copy and
// its ≈ 73 KB packet table — ≈ 275 KB per seed. A clock and network built new
// for every seed fail here (≈ 312 KB), as do payload bytes made per frame
// streamed (the parent of the header tape spent ≈ 3.5 MB per seed on them,
// ≈ 16 MB with a title per seed), a time column stored beside each sampled
// series and a full-depth trace ring per registry (≈ 0.59 MB per seed with
// both), and sampling all nine Result series where the check reads one
// (≈ 396 KB).
func TestAllocsSweepSharesFeature(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const seeds, budget = 16, 300 << 10
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
		t.Errorf("%d-seed sweep allocated %d bytes per seed, want <= %d: are frame payloads being built again?", seeds, perSeed, budget)
	}
}
