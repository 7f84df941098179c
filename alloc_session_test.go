package repro

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestAllocsSessionSetup pins the allocation cost of one full session
// establishment cycle — Open anycast, server-side session start, session
// group join, a second of streaming, graceful stop — once the pools on both
// sides are warm. The per-frame path is pinned at zero elsewhere; this pin
// covers the per-session path the capacity experiments exercise a thousand
// times per run: pooled server sessions, pooled open/reply events, the
// reused client pipeline and policy. The cycle includes gcs view changes,
// each of which allocates the view it installs, so the budget is not zero;
// it sits close enough over the measurement that a per-incarnation
// reallocation sneaking back in fails it.
func TestAllocsSessionSetup(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.LAN())

	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 5 * time.Second, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	srv, err := server.New(server.Config{
		ID:      "server-1",
		Clock:   clk,
		Network: net,
		Catalog: cat,
		Peers:   []string{"server-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)

	c, err := client.New(client.Config{
		ID:      "viewer-1",
		Clock:   clk,
		Network: net,
		Servers: []string{"server-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cycle := func() {
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(1 * time.Second)
		if st := c.State(); st != client.StateWatching {
			t.Fatalf("after open: state %v, want watching", st)
		}
		if err := c.StopWatching(); err != nil {
			t.Fatal(err)
		}
		// Let the server observe the stop, retire the session, and let
		// GCS stability garbage-collect the cycle's retained messages so
		// their buffers return to the pools.
		clk.Advance(2 * time.Second)
	}

	for i := 0; i < 8; i++ { // warm every pool on both sides
		cycle()
	}
	allocs := testing.AllocsPerRun(16, cycle)

	// A warm cycle measures 74 allocs, alone and in the full package run
	// (80 while gcs decoded into free-listed envelopes and each membership
	// framed in a scratch of its own; ≈260 when the budget was first set),
	// and 92–95 under the race detector, whose sync.Pool drops a quarter of
	// its Puts. Each budget is ≈ 15 % over its measurement.
	budget := 85.0
	if raceEnabled {
		budget = 109
	}
	if allocs > budget {
		t.Fatalf("session setup cycle = %v allocs, budget %v", allocs, budget)
	}
	t.Logf("session setup cycle = %v allocs (budget %v)", allocs, budget)
}

// TestAllocsShapedStreaming pins the frame egress path with the full
// traffic-class ladder engaged: token-bucket shaping (with active
// shedding), best-effort quality degradation, and a reserved stream
// overdrafting the bucket. A warm simulated second moves hundreds of
// frames and sheds hundreds of tokens, so a single allocation anywhere on
// the shaped per-frame path would blow the budget by an order of
// magnitude; the budget itself only absorbs the periodic session-sync and
// starvation-reopen traffic, which allocated exactly the same before the
// shaper existed (~35/s measured, shaped or not).
func TestAllocsShapedStreaming(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.LAN())
	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 10 * time.Minute, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	srv, err := server.New(server.Config{
		ID:      "server-1",
		Clock:   clk,
		Network: net,
		Catalog: cat,
		Peers:   []string{"server-1"},
		Overload: server.OverloadConfig{
			// Below the two streams' joint demand, so the bucket runs dry
			// and best-effort frames are repeatedly shed and retried, while
			// leaving enough residual rate that the degraded stream still
			// moves (thinning stays active too).
			ShapeRate:       200_000,
			DegradeSessions: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)

	for _, v := range []struct {
		id    string
		class wire.Class
	}{{"res-1", wire.ClassReserved}, {"be-1", wire.ClassBestEffort}} {
		c, err := client.New(client.Config{
			ID:      v.id,
			Clock:   clk,
			Network: net,
			Servers: []string{"server-1"},
			Class:   v.class,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(15 * time.Second) // warm pools, engage the ladder

	before := srv.Stats()
	allocs := testing.AllocsPerRun(10, func() { clk.Advance(time.Second) })
	after := srv.Stats()
	if after.ShedTokens == before.ShedTokens || after.DegradedFrames == before.DegradedFrames {
		t.Fatalf("ladder idle during measurement: shed %d→%d degraded %d→%d",
			before.ShedTokens, after.ShedTokens, before.DegradedFrames, after.DegradedFrames)
	}

	const budget = 120
	if allocs > budget {
		t.Fatalf("shaped streaming = %v allocs per simulated second, budget %d", allocs, budget)
	}
	t.Logf("shaped streaming = %v allocs per simulated second (budget %d)", allocs, budget)
}
