package congress_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/congress"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	clk *clock.Virtual
	net *netsim.Network
	dir *congress.Directory
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 13, netsim.LAN())
	dir, err := congress.NewDirectory(clk, net, "directory")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dir.Close)
	return &rig{clk: clk, net: net, dir: dir}
}

// channelOf binds a fresh endpoint and returns its directory channel.
func (r *rig) channelOf(t *testing.T, addr transport.Addr) transport.Endpoint {
	t.Helper()
	raw, err := r.net.NewEndpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	return transport.NewMux(raw).Channel(transport.ChannelDirectory)
}

func TestRegisterAndResolve(t *testing.T) {
	r := newRig(t)
	ep1 := r.channelOf(t, "node-1")
	ep2 := r.channelOf(t, "node-2")
	reg1 := congress.NewRegistrar(r.clk, ep1, "directory", "vod.servers", "node-1", 0)
	defer reg1.Stop()
	reg2 := congress.NewRegistrar(r.clk, ep2, "directory", "vod.servers", "node-2", 0)
	defer reg2.Stop()
	r.clk.Advance(100 * time.Millisecond)

	got := r.dir.Members("vod.servers")
	if len(got) != 2 || got[0] != "node-1" || got[1] != "node-2" {
		t.Fatalf("Members = %v", got)
	}

	epC := r.channelOf(t, "client")
	resolver := congress.NewResolver(r.clk, epC, "directory")
	var answer []transport.Addr
	resolver.Resolve("vod.servers", 3, func(addrs []transport.Addr) { answer = addrs })
	r.clk.Advance(100 * time.Millisecond)
	if len(answer) != 2 {
		t.Fatalf("Resolve = %v", answer)
	}
}

func TestRegistrationExpires(t *testing.T) {
	r := newRig(t)
	ep := r.channelOf(t, "node-1")
	reg := congress.NewRegistrar(r.clk, ep, "directory", "g", "node-1", 2*time.Second)
	r.clk.Advance(100 * time.Millisecond)
	if got := r.dir.Members("g"); len(got) != 1 {
		t.Fatalf("Members = %v", got)
	}
	// Stop refreshing: the entry must disappear after the TTL.
	reg.Stop()
	r.clk.Advance(3 * time.Second)
	if got := r.dir.Members("g"); len(got) != 0 {
		t.Fatalf("expired registration still resolves: %v", got)
	}
}

func TestRefreshKeepsEntryAlive(t *testing.T) {
	r := newRig(t)
	ep := r.channelOf(t, "node-1")
	reg := congress.NewRegistrar(r.clk, ep, "directory", "g", "node-1", 2*time.Second)
	defer reg.Stop()
	r.clk.Advance(10 * time.Second) // many TTLs, with refreshes
	if got := r.dir.Members("g"); len(got) != 1 {
		t.Fatalf("refreshed registration expired: %v", got)
	}
}

func TestResolveUnknownGroup(t *testing.T) {
	r := newRig(t)
	ep := r.channelOf(t, "client")
	resolver := congress.NewResolver(r.clk, ep, "directory")
	called := false
	resolver.Resolve("nobody-here", 1, func(addrs []transport.Addr) {
		called = true
		if len(addrs) != 0 {
			t.Errorf("unknown group resolved to %v", addrs)
		}
	})
	r.clk.Advance(time.Second)
	if !called {
		t.Fatal("callback never invoked for an empty group")
	}
}

func TestResolveRetriesUnderLoss(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	prof := netsim.LAN()
	prof.Loss = 0.5
	net := netsim.New(clk, 3, prof)
	dir, err := congress.NewDirectory(clk, net, "directory")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	raw, err := net.NewEndpoint("node-1")
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.NewMux(raw).Channel(transport.ChannelDirectory)
	reg := congress.NewRegistrar(clk, ep, "directory", "g", "node-1", 0)
	defer reg.Stop()
	clk.Advance(3 * time.Second) // registrations retry via refresh

	rawC, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	resolver := congress.NewResolver(clk, transport.NewMux(rawC).Channel(transport.ChannelDirectory), "directory")
	var answer []transport.Addr
	resolver.Resolve("g", 20, func(addrs []transport.Addr) { answer = addrs })
	// With capped-backoff retries the 20 attempts stretch over ~40s.
	clk.Advance(45 * time.Second)
	if len(answer) != 1 {
		t.Fatalf("resolution failed under 50%% loss: %v", answer)
	}
}

func TestResolveTimesOutWithoutDirectory(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	// Bind the directory address but never run a directory on it, so
	// sends succeed and vanish.
	if _, err := net.NewEndpoint("directory"); err != nil {
		t.Fatal(err)
	}
	raw, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	resolver := congress.NewResolver(clk, transport.NewMux(raw).Channel(transport.ChannelDirectory), "directory")
	var called bool
	var got []transport.Addr
	resolver.Resolve("g", 2, func(addrs []transport.Addr) { called, got = true, addrs })
	clk.Advance(5 * time.Second)
	if !called || got != nil {
		t.Fatalf("timeout path: called=%v got=%v", called, got)
	}
}

// TestResolveBackoffSpreads observes the retry schedule against a deaf
// directory: each retry waits roughly twice as long as the previous one
// (plus jitter) until the cap, so partitioned clients cannot synchronize
// their lookup storms.
func TestResolveBackoffSpreads(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	deaf, err := net.NewEndpoint("directory")
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Time
	deaf.SetHandler(func(transport.Addr, []byte) { arrivals = append(arrivals, clk.Now()) })

	raw, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	resolver := congress.NewResolver(clk, transport.NewMux(raw).Channel(transport.ChannelDirectory), "directory")
	done := false
	resolver.Resolve("g", 5, func([]transport.Addr) { done = true })
	clk.Advance(30 * time.Second)

	if !done {
		t.Fatal("resolution never gave up")
	}
	if len(arrivals) != 6 {
		t.Fatalf("directory saw %d requests, want 6 (initial + 5 retries)", len(arrivals))
	}
	var gaps []time.Duration
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, arrivals[i].Sub(arrivals[i-1]))
	}
	// Doubling with ≤25% jitter: successive gaps strictly grow until the
	// cap; every gap sits in [base, cap+25%].
	for i := 0; i+1 < 3; i++ {
		if gaps[i+1] <= gaps[i] {
			t.Errorf("gap %d (%v) did not grow over gap %d (%v)", i+1, gaps[i+1], i, gaps[i])
		}
	}
	for i, g := range gaps {
		if g < congress.ResolveRetryBase || g > congress.ResolveRetryCap+congress.ResolveRetryCap/4 {
			t.Errorf("gap %d = %v outside [%v, %v]", i, g,
				congress.ResolveRetryBase, congress.ResolveRetryCap+congress.ResolveRetryCap/4)
		}
	}
}

// TestDiscoveryBeforeServersStart: a client that asks while the directory
// is still empty keeps re-resolving and connects once a server appears.
func TestDiscoveryBeforeServersStart(t *testing.T) {
	r := newRig(t)
	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 20 * time.Second, Seed: 1})

	c, err := client.New(client.Config{
		ID:        "viewer-1",
		Clock:     r.clk,
		Network:   r.net,
		Directory: "directory",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(3 * time.Second) // resolving into the void

	cat := store.NewCatalog()
	cat.Add(movie)
	s, err := server.New(server.Config{
		ID:        "srv-a",
		Clock:     r.clk,
		Network:   r.net,
		Catalog:   cat,
		Peers:     []string{"srv-a"},
		Directory: "directory",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	r.clk.Advance(8 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("state = %v; late-server discovery failed", got)
	}
}
