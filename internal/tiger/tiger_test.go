package tiger

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
)

func tigerRig(t *testing.T, cubs []string) (*clock.Virtual, *netsim.Network, *Service, *Receiver) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 3, netsim.LAN())
	movie := mpeg.Generate("striped", mpeg.StreamConfig{Duration: 40 * time.Second, Seed: 1})
	svc, err := New(Config{
		Clock:   clk,
		Network: net,
		Cubs:    cubs,
		Movie:   movie,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	recv, err := NewReceiver(clk, net, "viewer", movie.FPS())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	return clk, net, svc, recv
}

func TestStripedStreaming(t *testing.T) {
	clk, _, svc, recv := tigerRig(t, []string{"cub-0", "cub-1", "cub-2", "cub-3"})
	clk.Advance(time.Second) // heartbeats settle
	svc.StartStream("viewer")
	clk.Advance(10 * time.Second)

	c := recv.Counters()
	if c.Displayed < 280 {
		t.Fatalf("displayed %d frames in 10s, want ≈ 300", c.Displayed)
	}
	if c.GapSkipped != 0 {
		t.Fatalf("%d frames skipped with all cubs alive", c.GapSkipped)
	}
	if c.Late != 0 {
		t.Fatalf("%d duplicate frames with all cubs alive (two cubs sent the same block)", c.Late)
	}
}

func TestOneCubFailureIsMasked(t *testing.T) {
	clk, net, svc, recv := tigerRig(t, []string{"cub-0", "cub-1", "cub-2", "cub-3"})
	clk.Advance(time.Second)
	svc.StartStream("viewer")
	clk.Advance(5 * time.Second)

	svc.CrashCub("cub-1")
	net.Crash("cub-1")
	clk.Advance(10 * time.Second)

	c := recv.Counters()
	// A short detection window loses some frames, then the mirror covers.
	// ~15 frames (500ms of cub-1's quarter share ≈ 4) plus margin.
	if c.GapSkipped > 20 {
		t.Fatalf("one failure: %d frames skipped; mirroring should mask it", c.GapSkipped)
	}
	// Confirm the mirror is actually covering: continued smooth display.
	before := c.Displayed
	clk.Advance(5 * time.Second)
	if got := recv.Counters().Displayed - before; got < 140 {
		t.Fatalf("only %d frames displayed after single failure", got)
	}
}

func TestTwoAdjacentFailuresLoseBlocks(t *testing.T) {
	clk, net, svc, recv := tigerRig(t, []string{"cub-0", "cub-1", "cub-2", "cub-3"})
	clk.Advance(time.Second)
	svc.StartStream("viewer")
	clk.Advance(5 * time.Second)

	// cub-0's blocks are mirrored on cub-1: killing both loses 1/4 of all
	// frames for good — the Tiger failure mode §7 contrasts with
	// replication-k.
	svc.CrashCub("cub-0")
	net.Crash("cub-0")
	svc.CrashCub("cub-1")
	net.Crash("cub-1")
	clk.Advance(12 * time.Second)

	c := recv.Counters()
	// 12s × 30fps × 1/4 = 90 frames owned by cub-0 are gone, plus cub-1's
	// detection-window losses.
	if c.GapSkipped < 60 {
		t.Fatalf("two adjacent failures skipped only %d frames; expected sustained loss", c.GapSkipped)
	}
}

func TestTwoNonAdjacentFailuresAreMasked(t *testing.T) {
	clk, net, svc, recv := tigerRig(t, []string{"cub-0", "cub-1", "cub-2", "cub-3"})
	clk.Advance(time.Second)
	svc.StartStream("viewer")
	clk.Advance(5 * time.Second)

	// cub-0 (mirrored on cub-1) and cub-2 (mirrored on cub-3): disjoint
	// mirror chains — both failures are masked.
	svc.CrashCub("cub-0")
	net.Crash("cub-0")
	svc.CrashCub("cub-2")
	net.Crash("cub-2")
	clk.Advance(10 * time.Second)

	c := recv.Counters()
	if c.GapSkipped > 40 {
		t.Fatalf("non-adjacent failures skipped %d frames; mirrors should cover both", c.GapSkipped)
	}
}

func TestConfigValidation(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.LAN())
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: time.Second})
	cases := []Config{
		{Network: net, Cubs: []string{"a", "b"}, Movie: movie},        // no clock
		{Clock: clk, Network: net, Cubs: []string{"a"}, Movie: movie}, // one cub
		{Clock: clk, Network: net, Cubs: []string{"a", "b"}},          // no movie
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestHeartbeatAllocsNothing pins the steady state of failure detection:
// once every cub has heard from every other, a heartbeat interval — each
// cub beating to each peer, every beat delivered — allocates nothing.
func TestHeartbeatAllocsNothing(t *testing.T) {
	clk, _, _, _ := tigerRig(t, []string{"cub-0", "cub-1", "cub-2", "cub-3"})
	clk.Advance(time.Second) // warm: lastHeard entries and delivery records exist
	allocs := testing.AllocsPerRun(100, func() { clk.Advance(100 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("a heartbeat interval allocates %v times, want 0", allocs)
	}
}
