package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/gcs"
	"repro/internal/lease"
	"repro/internal/netsim"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startLeaseClient starts a client in two-tier (lease) mode, with ring
// ordering its anycast list. A nil ring means a ring over the first server
// alone, which keeps servers in the order given.
func (r *rig) startLeaseClient(id string, ring *placement.Ring, servers ...string) *client.Client {
	r.t.Helper()
	if ring == nil {
		ring = placement.New(placement.DefaultVNodes)
		ring.Add(servers[0])
	}
	c, err := client.New(client.Config{
		ID:        id,
		Clock:     r.clk,
		Network:   r.net,
		Servers:   servers,
		Placement: ring,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.clients[id] = c
	return c
}

// TestLeaseOpenAndStream: a leased client streams exactly like a member
// client — and stays alive across many lease TTLs, proving renewals flow.
func TestLeaseOpenAndStream(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	r.run(time.Second)
	c := r.startLeaseClient("c1", nil, "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second) // 5 lease TTLs

	if got := c.State(); got != client.StateWatching {
		t.Fatalf("client state = %v, want watching", got)
	}
	cnt := c.Counters()
	if cnt.Displayed < 250 {
		t.Fatalf("displayed %d frames in 10s, want ≥ 250", cnt.Displayed)
	}
	if cnt.GapSkipped != 0 {
		t.Fatalf("skipped %d frames on a loss-free LAN", cnt.GapSkipped)
	}
	if n := r.servingCount("c1"); n != 1 {
		t.Fatalf("client served by %d servers", n)
	}
	if got := c.Stats().Reopens; got != 0 {
		t.Fatalf("healthy leased session reopened %d times", got)
	}
}

// TestLeasePlacementOrdering: with a shared ring, the first Open lands on
// the movie's ring owner — no broadcast, no wrong-server bounce.
func TestLeasePlacementOrdering(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2", "s3")
	ring := placement.New(placement.DefaultVNodes)
	for _, id := range []string{"s1", "s2", "s3"} {
		r.startServer(id)
		ring.Add(id)
	}
	r.run(2 * time.Second)

	c := r.startLeaseClient("c1", ring, "s1", "s2", "s3")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(3 * time.Second)

	owner := ring.LookupN("casablanca", 1)[0]
	if n := len(r.servers[owner].ActiveSessions()); n != 1 {
		t.Fatalf("ring owner %s has %d sessions, want 1", owner, n)
	}
	if got := c.Stats().OpensSent; got != 1 {
		t.Fatalf("placement-ordered open took %d sends, want 1", got)
	}
}

// TestLeaseSilentClientExpires: a leased client that vanishes without a
// goodbye is reclaimed by the lease table — no failure detector involved.
func TestLeaseSilentClientExpires(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	s := r.startServer("s1")
	c := r.startLeaseClient("c1", nil, "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if n := len(s.ActiveSessions()); n != 1 {
		t.Fatalf("server has %d sessions before the crash, want 1", n)
	}

	// The client dies silently: renewals stop, no VCR Stop is sent.
	c.Close()
	r.net.Crash(transport.Addr("c1"))
	r.run(5 * time.Second) // > TTL + sweep granularity

	if n := len(s.ActiveSessions()); n != 0 {
		t.Fatalf("server still holds %d sessions %v after the client died", n, 5*time.Second)
	}
}

// TestLeaseTakeover: when the serving server crashes, no view change
// reassigns the leased client — its keeper notices the ack silence and
// re-anycasts the Open with the takeover flag, and the next server adopts
// the session from the synced knowledge table.
func TestLeaseTakeover(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second) // let the movie group form

	c := r.startLeaseClient("c1", nil, "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(15 * time.Second) // steady state

	var serving, other string
	for id, s := range r.servers {
		if len(s.ActiveSessions()) == 1 {
			serving = id
		} else {
			other = id
		}
	}
	if serving == "" {
		t.Fatal("no server is serving the client")
	}
	before := c.Counters()
	r.servers[serving].Stop()
	r.net.Crash(transport.Addr(serving))
	r.run(12 * time.Second)

	if n := len(r.servers[other].ActiveSessions()); n != 1 {
		t.Fatalf("survivor has %d sessions, want 1", n)
	}
	if got := r.servers[other].Stats().Takeovers; got == 0 {
		t.Fatal("survivor adopted the session without counting a takeover")
	}
	if got := c.Stats().Reopens; got == 0 {
		t.Fatal("client recovered without a lease-driven reopen")
	}
	displayedDuring := c.Counters().Displayed - before.Displayed
	// 12s at 30fps = 360 frames; lease detection (~TTL + one renew tick)
	// costs up to ~3s of stream, partially hidden by the buffer.
	if displayedDuring < 220 {
		t.Fatalf("displayed only %d frames across the lease takeover", displayedDuring)
	}
	if r.servingCount("c1") != 1 {
		t.Fatalf("client served by %d servers after takeover", r.servingCount("c1"))
	}
}

// TestLeaseTakeoverWhilePaused: a paused leased viewer survives a takeover.
// The lease keeper notices the crash and reopens, and the accept keeps the
// viewer paused: nothing is displayed until Resume, and the adopter then
// streams at full rate.
func TestLeaseTakeoverWhilePaused(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second)

	c := r.startLeaseClient("c1", nil, "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	paused := c.Counters().Displayed
	r.run(2 * time.Second)

	var serving, other string
	for id, s := range r.servers {
		if len(s.ActiveSessions()) == 1 {
			serving = id
		} else {
			other = id
		}
	}
	if serving == "" {
		t.Fatal("no server is serving the client")
	}
	r.servers[serving].Stop()
	r.net.Crash(transport.Addr(serving))
	r.run(10 * time.Second)

	if got := c.Counters().Displayed; got != paused {
		t.Fatalf("displayed while paused across the takeover: %d → %d", paused, got)
	}
	if got := c.Stats().Reopens; got != 1 {
		t.Fatalf("client reopened %d times, want 1", got)
	}
	if got := r.servers[other].Stats().Takeovers; got != 1 {
		t.Fatalf("survivor counted %d takeovers, want 1", got)
	}
	if !r.servers[other].HasSession("c1") {
		t.Fatal("survivor does not hold the session")
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if got := c.Counters().Displayed - paused; got < 140 {
		t.Fatalf("displayed %d frames in 5s after Resume, want ≥ 140", got)
	}
}

// TestLeaseVCRDirect: pause/resume/seek ride the direct channel in lease
// mode (there is no session group to multicast into) and still control
// the stream.
func TestLeaseVCRDirect(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	c := r.startLeaseClient("c1", nil, "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)

	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	r.run(200 * time.Millisecond) // let the pause land and pacing drain
	paused := c.Counters().Displayed
	r.run(3 * time.Second)
	if got := c.Counters().Displayed; got != paused {
		t.Fatalf("displayed advanced %d -> %d while paused", paused, got)
	}

	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	r.run(3 * time.Second)
	if got := c.Counters().Displayed; got <= paused+60 {
		t.Fatalf("displayed %d -> %d after resume, want ≥ +60", paused, got)
	}
}

// TestForgedRenewIsIgnored: a direct datagram's ClientID is only the
// sender's claim. A forger that renews a dead victim's lease from its own
// address must not keep the session alive, must hear no ack, and must not
// be able to drive the stream of the well-behaved viewer beside it.
func TestForgedRenewIsIgnored(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	s := r.startServer("s1")
	victim := r.startLeaseClient("victim", nil, "s1")
	good := r.startLeaseClient("good", nil, "s1")
	for _, c := range []*client.Client{victim, good} {
		if err := c.Watch("casablanca"); err != nil {
			t.Fatal(err)
		}
	}
	r.run(5 * time.Second)
	if n := len(s.ActiveSessions()); n != 2 {
		t.Fatalf("server has %d sessions before the attack, want 2", n)
	}

	ep, err := r.net.NewEndpoint("forger")
	if err != nil {
		t.Fatal(err)
	}
	forger := gcs.NewProcess(gcs.Config{Clock: r.clk, Endpoint: transport.NewMux(ep).Channel(transport.ChannelGCS)})
	defer forger.Close()
	heard := 0
	forger.SetDirectHandler(func(gcs.ProcessID, []byte) { heard++ })

	// The victim dies silently; the forger renews in its name three times per
	// TTL, and pauses the other viewer's stream for good measure.
	victim.Close()
	r.net.Crash(transport.Addr("victim"))
	pause := wire.Encode(&wire.VCR{ClientID: "good", Op: wire.VCRPause})
	before := good.Counters().Displayed
	for seq := uint64(1); seq <= 10; seq++ {
		_ = forger.Send("s1", lease.AppendRenew(nil, &lease.Renew{ClientID: "victim", Seq: seq}))
		_ = forger.Send("s1", pause)
		r.run(500 * time.Millisecond)
	}

	if ids := s.ActiveSessions(); len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("sessions after 5 s of forged renewals = %v, want [good]: the victim's lease must expire on schedule", ids)
	}
	if heard != 0 {
		t.Fatalf("forger received %d datagrams (acks meant for the victim)", heard)
	}
	if got := good.Counters().Displayed - before; got < 130 {
		t.Fatalf("well-behaved viewer displayed %d frames in 5 s under attack, want ≥ 130 (forged pause took effect?)", got)
	}
	if st := good.Stats(); st.Reopens != 0 || good.State() != client.StateWatching {
		t.Fatalf("well-behaved viewer disturbed: state %v, reopens %d", good.State(), st.Reopens)
	}
}
