package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/internal/store"
)

// leaseServers builds the server side of a two-tier deployment: the named
// servers, all holding the feature, on a LAN-profile network. The caller
// stops them.
func leaseServers(t *testing.T, ids ...string) (*clock.Virtual, *netsim.Network, []*server.Server) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.LAN())
	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 10 * time.Minute, Seed: 1})
	srvs := make([]*server.Server, len(ids))
	for i, id := range ids {
		cat := store.NewCatalog()
		cat.Add(movie)
		srv, err := server.New(server.Config{ID: id, Clock: clk, Network: net, Catalog: cat, Peers: ids})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			srv.Stop()
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	clk.Advance(500 * time.Millisecond)
	return clk, net, srvs
}

// leaseServer is the one-server case, the one the viewers below open on.
func leaseServer(t *testing.T) (*clock.Virtual, *netsim.Network, *server.Server) {
	t.Helper()
	clk, net, srvs := leaseServers(t, "server-1")
	return clk, net, srvs[0]
}

// serverOneRing holds server-1 alone. Like a deployment's ring, it is built
// once and shared by every viewer, so no viewer pays for it.
var serverOneRing = func() *placement.Ring {
	r := placement.New(placement.DefaultVNodes)
	r.Add("server-1")
	return r
}()

// leasedViewer adds one leased viewer of server-1 to net.
func leasedViewer(clk *clock.Virtual, net *netsim.Network, id string) (*client.Client, error) {
	return client.New(client.Config{
		ID:        id,
		Clock:     clk,
		Network:   net,
		Servers:   []string{"server-1"},
		Placement: serverOneRing,
	})
}

// leasedCrowd adds n leased viewers of server-1 to net, all watching the
// feature from this instant, closed when the test ends.
func leasedCrowd(t *testing.T, clk *clock.Virtual, net *netsim.Network, n int) []*client.Client {
	t.Helper()
	crowd := make([]*client.Client, n)
	for i := range crowd {
		c, err := leasedViewer(clk, net, fmt.Sprintf("viewer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		crowd[i] = c
	}
	return crowd
}

// leaseRig builds the smallest two-tier deployment: one server and one
// leased viewer, the configuration the 10k-viewer scale table instantiates
// ten thousand times.
func leaseRig(t *testing.T) (*clock.Virtual, *server.Server, *client.Client) {
	t.Helper()
	clk, net, srv := leaseServer(t)
	c, err := leasedViewer(clk, net, "viewer-1")
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	return clk, srv, c
}

// TestAllocsLeasedViewerSetup pins the per-viewer setup cost in lease mode:
// Open, lease grant, a second of streaming with renewals, graceful stop. At
// the headline table size this cycle runs ten thousand times per trial, so
// a stray per-incarnation allocation multiplies straight into the table's
// footprint. Lease mode involves no group membership — no view change, no
// knowledge exchange — so the warm budget is far tighter than the
// session-group pin in TestAllocsSessionSetup.
func TestAllocsLeasedViewerSetup(t *testing.T) {
	clk, srv, c := leaseRig(t)
	defer srv.Stop()
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
		// Let the server retire the session and the lease sweep observe it.
		clk.Advance(2 * time.Second)
	}
	for i := 0; i < 8; i++ { // warm the pools on both sides
		cycle()
	}
	allocs := testing.AllocsPerRun(16, cycle)

	// A warm cycle measures ≈55 allocs (sync multicasts of the movie's
	// single-entry knowledge table dominate); 2× headroom for toolchain
	// drift while still catching any per-viewer reallocation.
	const budget = 120
	if allocs > budget {
		t.Fatalf("leased viewer setup cycle = %v allocs, budget %d", allocs, budget)
	}
	t.Logf("leased viewer setup cycle = %v allocs (budget %d)", allocs, budget)
}

// leasedStreamingAllocs measures one warm simulated second of leased
// streaming: viewers leased viewers of one title on one server, ~30 frames
// each moving through its session's pacing timer → the pacing body → one
// preframed send → one pooled netsim delivery event, plus renewals and the
// half-second state sync.
func leasedStreamingAllocs(t *testing.T, viewers int) float64 {
	t.Helper()
	clk, net, srv := leaseServer(t)
	defer srv.Stop()
	crowd := leasedCrowd(t, clk, net, viewers)
	clk.Advance(10 * time.Second) // warm: pools, timers, delivery records, flow control settled

	before := crowd[0].Counters().Displayed
	allocs := testing.AllocsPerRun(10, func() { clk.Advance(time.Second) })
	if after := crowd[0].Counters().Displayed; after == before {
		t.Fatal("stream idle during measurement")
	}
	return allocs
}

// TestAllocsLeasedStreaming pins the leased steady state with one viewer:
// the budget is a small constant, far below the ~30 frames the second moves,
// so a single allocation anywhere on the per-frame path (the re-armed pacing
// timer, the pacing body, the dense-index network send) would blow it by an
// order of magnitude.
func TestAllocsLeasedStreaming(t *testing.T) {
	// ~30 pacing ticks per simulated second: a budget of 30 is the "at most
	// one alloc per tick" line, and the renewal/sync background fits inside
	// it because the frame path itself measures zero.
	const budget = 30
	allocs := leasedStreamingAllocs(t, 1)
	if allocs > budget {
		t.Fatalf("leased streaming = %v allocs per simulated second, budget %d", allocs, budget)
	}
	t.Logf("leased streaming = %v allocs per simulated second (budget %d)", allocs, budget)
}

// TestAllocsEightLeasedStreaming: eight viewers that opened at the same
// instant pace on eight timers due together, so every frame instant sends
// eight frames. The budget does not grow with the viewer count — pacing,
// sending and delivering a frame allocates nothing per destination; what
// eight viewers add is only their own renewals.
func TestAllocsEightLeasedStreaming(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector, once per viewer")
	}
	const budget = 30
	allocs := leasedStreamingAllocs(t, 8)
	if allocs > budget {
		t.Fatalf("eight-viewer leased streaming = %v allocs per simulated second, budget %d", allocs, budget)
	}
	t.Logf("eight-viewer leased streaming = %v allocs per simulated second (budget %d)", allocs, budget)
}

// TestAllocsLeasedCrowdSteadyState is the pin the single-viewer tests above
// cannot be: with a crowd attached, the steady state also crosses what only
// recurs at crowd scale — a server's link row promoted to a dense array over
// 200 destinations, and renews from many clients interleaving at one server
// (every TTL/3 each). 200 leased viewers on the scale table's data plane, 5
// simulated seconds: ≈ 37,000 sends and 7 renew rounds. Before link rows kept
// their storage and renews decoded against the session's own ID, this rig
// measured ≈ 4.7 allocations per viewer-second; what remains is the server's
// half-second state sync.
func TestAllocsLeasedCrowdSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector")
	}
	const viewers, seconds = 200, 5
	clk, net, srv := leaseServer(t)
	defer srv.Stop()
	crowd := leasedCrowd(t, clk, net, viewers)
	// Warm: pools and timers, and the start-up emergency boosts every
	// viewer asks for until its buffers first fill (over by ≈ 4.5 s).
	clk.Advance(6 * time.Second)

	reg := obs.NewRegistry("net", clk.Now)
	net.SetObs(reg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clk.Advance(seconds * time.Second)
	runtime.ReadMemStats(&after)

	// At 30 fps the window carries 30,000 frames, plus renews and flow
	// control: a crowd that went quiet would measure nothing.
	if sent := reg.Value("netsim.sent"); sent < viewers*seconds*25 {
		t.Fatalf("only %d datagrams sent in the measured window, want ≥ %d", sent, viewers*seconds*25)
	}
	// The window is 2.5 lease TTLs long: a viewer still served at the end
	// of it had its renews acked throughout.
	for i, c := range crowd {
		if c.State() != client.StateWatching || !srv.HasSession(fmt.Sprintf("viewer-%d", i)) {
			t.Fatalf("viewer-%d fell off during the measured window (state %v)", i, c.State())
		}
	}
	perViewerSecond := float64(after.Mallocs-before.Mallocs) / (viewers * seconds)
	if perViewerSecond > 0.5 {
		t.Fatalf("leased crowd steady state = %.2f allocs per viewer-second, want ≤ 0.5", perViewerSecond)
	}
	t.Logf("leased crowd steady state = %.2f allocs per viewer-second", perViewerSecond)
}
