package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startOverloadServer brings up a server with the traffic-class ladder.
func (r *rig) startOverloadServer(t *testing.T, id string, maxSessions int, ov server.OverloadConfig) *server.Server {
	t.Helper()
	cat := store.NewCatalog()
	cat.Add(r.movie)
	s, err := server.New(server.Config{
		ID:          id,
		Clock:       r.clk,
		Network:     r.net,
		Catalog:     cat,
		Peers:       r.peers,
		MaxSessions: maxSessions,
		Overload:    ov,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r.servers[id] = s
	return s
}

// startClassClient starts a client with an explicit traffic class.
func (r *rig) startClassClient(id string, class wire.Class, servers ...string) *client.Client {
	r.t.Helper()
	c, err := client.New(client.Config{
		ID:      id,
		Clock:   r.clk,
		Network: r.net,
		Servers: servers,
		Class:   class,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.clients[id] = c
	return c
}

// TestBestEffortRefusedDuringPartitionAdmitsAfterHeal: a best-effort open
// that is refused at the best-effort rung keeps retrying through a network
// partition (during which its opens are simply lost) and is admitted once
// the partition heals and capacity has freed up — refusal is a deferral,
// never a terminal state.
func TestBestEffortRefusedDuringPartitionAdmitsAfterHeal(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startOverloadServer(t, "s1", 4, server.OverloadConfig{
		BestEffortSessions: 1,
	})
	r.run(time.Second)

	c1 := r.startClassClient("c1", wire.ClassBestEffort, "s1")
	if err := c1.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(2 * time.Second)
	if got := c1.State(); got != client.StateWatching {
		t.Fatalf("c1 state = %v, want watching", got)
	}

	// c2 hits the best-effort rung and is refused with a retry hint.
	c2 := r.startClassClient("c2", wire.ClassBestEffort, "s1")
	if err := c2.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(2 * time.Second)
	if got := c2.State(); got != client.StateOpening {
		t.Fatalf("c2 state = %v, want still opening (refused)", got)
	}
	refusedSoFar := c2.Stats().OpenRefusals
	if refusedSoFar == 0 {
		t.Fatal("c2 saw no refusals before the partition")
	}

	// Partition c2 away; its retries go nowhere. Meanwhile the seat frees.
	r.net.Partition([]transport.Addr{"c2"}, []transport.Addr{"s1", "c1"})
	if err := c1.StopWatching(); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if got := c2.State(); got != client.StateOpening {
		t.Fatalf("c2 state = %v during partition, want still opening", got)
	}
	if n := len(r.servers["s1"].ActiveSessions()); n != 0 {
		t.Fatalf("s1 sessions = %d during partition, want 0", n)
	}

	// Heal: the next retry reaches the server and is admitted. The opens
	// lost in the partition have stretched the no-reply backoff, whose
	// longest wait is 8s plus 25% jitter.
	r.net.Heal()
	r.run(11 * time.Second)
	if got := c2.State(); got != client.StateWatching {
		t.Fatalf("c2 state = %v after heal, want watching", got)
	}
	if n := len(r.servers["s1"].ActiveSessions()); n != 1 {
		t.Fatalf("s1 sessions = %d after heal, want 1", n)
	}
	st := r.servers["s1"].Stats()
	if st.RefusalsBestEffort == 0 || st.AdmitsBestEffort != 2 {
		t.Fatalf("server refusals=%d admits=%d, want refusals>0 admits=2",
			st.RefusalsBestEffort, st.AdmitsBestEffort)
	}
}

// TestRefusalBackoffExactCounters pins the refusal-retry schedule against
// a permanently full server: the first retry comes exactly one
// refusalBackoff (10ms) later (no jitter, preserving byte-identity for
// isolated refusals), then the delay doubles with seeded jitter up to the
// 2s cap. The server carries no Retry-After hint (no Overload config), so
// this is the client's own schedule; the refusal counts at each checkpoint
// are exact for the rig's fixed seed.
func TestRefusalBackoffExactCounters(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startLimitedServer(t, "s1", 1)
	r.run(time.Second)

	c1 := r.startClassClient("c1", wire.ClassReserved, "s1")
	if err := c1.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(time.Second)

	c2 := r.startClassClient("c2", wire.ClassBestEffort, "s1")
	if err := c2.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	// Refusal n waits ~10·2^(n-1) ms (jittered from the second on, capped
	// at 2s): the streak is exactly reproducible for the rig's seed.
	for _, cp := range []struct {
		after time.Duration
		want  uint64
	}{
		{5 * time.Millisecond, 1},  // initial open refused at once
		{10 * time.Millisecond, 2}, // first retry: exactly +10ms, no jitter
		{3 * time.Second, 9},       // doubling + jitter reaches the 2s cap
		{7 * time.Second, 12},      // capped: ~2-2.5s per retry
	} {
		r.run(cp.after)
		if got := c2.Stats().OpenRefusals; got != cp.want {
			t.Fatalf("refusals at t+%s = %d, want exactly %d", cp.after, got, cp.want)
		}
	}
	if got := c2.State(); got != client.StateOpening {
		t.Fatalf("c2 state = %v, want still opening", got)
	}
}

// TestRefusalHonorsRetryAfterHint: the server's 1s Retry-After hint floors
// the client's own backoff — a refused client must not come back faster
// than the server asked, even though its local backoff starts at 10ms.
func TestRefusalHonorsRetryAfterHint(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startOverloadServer(t, "s1", 1, server.OverloadConfig{
		BestEffortSessions: 1,
	})
	r.run(time.Second)

	c1 := r.startClassClient("c1", wire.ClassReserved, "s1")
	if err := c1.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(time.Second)

	c2 := r.startClassClient("c2", wire.ClassBestEffort, "s1")
	if err := c2.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(2 * time.Second)
	// 2s with a 1s floor (plus up to 25% jitter) bounds the streak at
	// 1 initial + 1 or 2 retries; without the hint the doubling 10ms
	// backoff retries 7 times in the same 2s.
	if got := c2.Stats().OpenRefusals; got < 2 || got > 3 {
		t.Fatalf("refusals over 2s with 1s hint = %d, want 2..3", got)
	}
	if st := r.servers["s1"].Stats(); st.RefusalsBestEffort != c2.Stats().OpenRefusals {
		t.Fatalf("server counted %d refusals, client saw %d", st.RefusalsBestEffort, c2.Stats().OpenRefusals)
	}
}
