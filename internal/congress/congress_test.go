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
	"repro/internal/wire"
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
	reg1 := congress.NewRegistrar(r.clk, ep1, "directory", "vod.servers", "node-1")
	defer reg1.Stop()
	reg2 := congress.NewRegistrar(r.clk, ep2, "directory", "vod.servers", "node-2")
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
	reg := congress.NewRegistrar(r.clk, ep, "directory", "g", "node-1")
	r.clk.Advance(100 * time.Millisecond)
	if got := r.dir.Members("g"); len(got) != 1 {
		t.Fatalf("Members = %v", got)
	}
	// Stop refreshing: the entry must disappear after the TTL.
	reg.Stop()
	r.clk.Advance(4 * time.Second)
	if got := r.dir.Members("g"); len(got) != 0 {
		t.Fatalf("expired registration still resolves: %v", got)
	}
}

func TestRefreshKeepsEntryAlive(t *testing.T) {
	r := newRig(t)
	ep := r.channelOf(t, "node-1")
	reg := congress.NewRegistrar(r.clk, ep, "directory", "g", "node-1")
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
	reg := congress.NewRegistrar(clk, ep, "directory", "g", "node-1")
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

// TestResolveStreakEscalatesAndResets pins the cross-resolution backoff
// memory: while the directory stays unreachable, each new resolution starts
// deeper in the backoff schedule (fewer probes for the same wall time), and
// one successful reply resets the streak so the next failure probes from
// the base delay again.
func TestResolveStreakEscalatesAndResets(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())

	// A scriptable directory: counts requests, and answers them (with an
	// empty member list — still an answer) only when told to.
	raw, err := net.NewEndpoint("directory")
	if err != nil {
		t.Fatal(err)
	}
	dirCh := transport.NewMux(raw).Channel(transport.ChannelDirectory)
	requests, answering := 0, false
	dirCh.SetHandler(func(from transport.Addr, payload []byte) {
		requests++
		if !answering {
			return
		}
		rd := wire.NewReader(payload)
		if rd.U8() != 2 { // kindResolve
			return
		}
		group := rd.String()
		nonce := rd.U64()
		reply := wire.AppendU8(nil, 3) // kindReply
		reply = wire.AppendString(reply, group)
		reply = wire.AppendU64(reply, nonce)
		reply = wire.AppendU16(reply, 0)
		_ = dirCh.Send(from, reply)
	})

	rawC, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	resolver := congress.NewResolver(clk, transport.NewMux(rawC).Channel(transport.ChannelDirectory), "directory")

	// The retry count is fixed (initial + maxRetries probes), so the streak
	// shows up as time: a deeper starting backoff stretches the same five
	// probes over a longer window. Measure time-to-give-up.
	failedDuration := func() time.Duration {
		requests = 0
		start := clk.Now()
		done := false
		resolver.Resolve("g", 4, func([]transport.Addr) { done = true })
		for i := 0; i < 3000 && !done; i++ {
			clk.Advance(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("resolution never gave up")
		}
		if requests != 5 {
			t.Fatalf("probes = %d, want 5", requests)
		}
		return clk.Now().Sub(start)
	}

	// Consecutive failed resolutions start deeper in the schedule. With
	// base 300ms, cap 2s and ≤25% jitter the windows are disjoint for the
	// first escalation and monotone to the cap after.
	first, second, third := failedDuration(), failedDuration(), failedDuration()
	if second <= first {
		t.Fatalf("failure streak did not escalate backoff: %v then %v", first, second)
	}
	if third <= first {
		t.Fatalf("streak escalation not sustained: %v, %v, %v", first, second, third)
	}

	// One answered resolution resets the streak: the next failed
	// resolution probes like the very first again.
	answering = true
	answered := false
	var got []transport.Addr
	resolver.Resolve("g", 4, func(addrs []transport.Addr) { answered, got = true, addrs })
	clk.Advance(time.Second)
	if !answered || got == nil || len(got) != 0 {
		t.Fatalf("answered resolve: called=%v got=%v, want empty success", answered, got)
	}
	// Back to the base schedule: the post-reset failure finishes faster
	// than any escalated one (jitter keeps it within ~25% of the first).
	answering = false
	if after := failedDuration(); after >= second {
		t.Fatalf("streak not reset by success: %v, escalated run took %v", after, second)
	}
}
