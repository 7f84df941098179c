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
// where its schedule cold-restarts a server, that server's transfer of the
// title's file — ≈ 143 KB per seed. The fetched file parses to the Movie the
// process holds; a copy with its own frames, ≈ 73 KB packet table and file
// form fails here (≈ 59 KB more per seed), as does a clock and network built
// new for every seed (≈ 93 KB more with the copy), as do a fresh gcs proposal
// and fresh flush envelopes per view change with a lone server holding every
// state sync it sends (≈ 33 KB more), payload bytes made per frame streamed
// (≈ 3.5 MB per seed), a time column stored beside each sampled series and a
// full-depth trace ring per registry (≈ 0.59 MB per seed with both), and
// sampling all nine Result series where the check reads one (≈ 396 KB).
func TestAllocsSweepSharesFeature(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const seeds, budget = 16, 176 << 10
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
