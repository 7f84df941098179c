package server_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

// TestPacingMechanismFollowsTier: one server paces its leased viewers and its
// session-group viewers the same way, at the same time — one standing pacing
// event per streaming session. The observable is the clock's standing event
// count. Opening the viewers of either tier a few milliseconds apart instead
// of at one instant leaves it unchanged (a timer each either way), and a
// pause of any one viewer takes exactly one event away: its session's
// pacing timer.
func TestPacingMechanismFollowsTier(t *testing.T) {
	const k = 4
	const gap = 4 * time.Millisecond

	// standing opens k leased and k session-group viewers, spreading the
	// opens of either tier by gap, and returns the standing event count at
	// 15 s, past the start-up emergency boosts, with every session back at
	// the movie's nominal rate. A pause ≥ 0 is the index of a viewer (0 to
	// k-1 leased, k to 2k-1 session-group) that pauses at 14 s.
	standing := func(spreadLeased, spreadGroup bool, pause int) int {
		// A delay-free network: nothing is in flight between clock steps,
		// so the pending events are timers only.
		r := newRig(t, netsim.Profile{}, "s1")
		r.startServer("s1")
		r.run(time.Second)
		var viewers []*client.Client
		open := func(c *client.Client, spread bool) {
			t.Helper()
			if err := c.Watch("casablanca"); err != nil {
				t.Fatal(err)
			}
			viewers = append(viewers, c)
			if spread {
				r.run(gap)
			}
		}
		for i := 0; i < k; i++ {
			open(r.startLeaseClient(fmt.Sprintf("leased-%d", i), nil, "s1"), spreadLeased)
		}
		for i := 0; i < k; i++ {
			open(r.startClient(fmt.Sprintf("member-%d", i), "s1"), spreadGroup)
		}
		r.clk.AdvanceTo(epoch.Add(14 * time.Second))
		if pause >= 0 {
			if err := viewers[pause].Pause(); err != nil {
				t.Fatal(err)
			}
		}
		r.clk.AdvanceTo(epoch.Add(15 * time.Second))
		for _, c := range viewers {
			if got := c.Counters().Displayed; got < 300 {
				t.Fatalf("a viewer displayed %d frames in ≈14s, want ≥ 300", got)
			}
		}
		n := pendingEvents(r.clk)
		for _, c := range viewers {
			c.Close()
		}
		r.servers["s1"].Stop()
		return n
	}

	together := standing(false, false, -1)
	if got := standing(true, false, -1); got != together {
		t.Errorf("spreading %d leased viewers: %d standing events, want %d (a timer each either way)", k, got, together)
	}
	if got := standing(false, true, -1); got != together {
		t.Errorf("spreading %d session-group viewers: %d standing events, want %d (a timer each either way)", k, got, together)
	}
	if got := standing(false, false, 0); got != together-1 {
		t.Errorf("pausing a leased viewer: %d standing events, want %d (its pacing timer gone)", got, together-1)
	}
	if got := standing(false, false, k); got != together-1 {
		t.Errorf("pausing a session-group viewer: %d standing events, want %d (its pacing timer gone)", got, together-1)
	}
}

// plainNetwork hands out endpoints that are transport.Endpoint and nothing
// more — what a UDP socket is — by hiding whatever else the simulated
// network's endpoints implement.
type plainNetwork struct{ transport.Network }

func (n plainNetwork) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.Network.NewEndpoint(addr)
	if err != nil {
		return nil, err
	}
	return struct{ transport.Endpoint }{ep}, nil
}

// TestLeasedStreamOverPlainEndpoint: a leased session's frames must reach
// its viewer through an endpoint without the RefSender extension too — the
// video channel falls back to one plain Send per frame. No daemon turns
// leases on yet, so this is the only thing that runs that fallback.
func TestLeasedStreamOverPlainEndpoint(t *testing.T) {
	r := newRig(t, netsim.Profile{}, "s1")
	cat := store.NewCatalog()
	cat.Add(r.movie)
	s, err := server.New(server.Config{
		ID:      "s1",
		Clock:   r.clk,
		Network: plainNetwork{r.net},
		Catalog: cat,
		Peers:   r.peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	r.run(time.Second)

	c := r.startLeaseClient("c1", nil, "s1")
	defer c.Close()
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)

	sent, cnt := s.Stats().FramesSent, c.Counters()
	if sent < 300 {
		t.Fatalf("server sent %d frames in 10s, want ≥ 300", sent)
	}
	if cnt.Received != sent {
		t.Fatalf("viewer received %d of the %d frames sent on a loss-free network", cnt.Received, sent)
	}
	if cnt.GapSkipped != 0 || cnt.Late != 0 {
		t.Fatalf("viewer skipped %d and was late on %d frames", cnt.GapSkipped, cnt.Late)
	}
}

// pendingEvents is how many events clk holds queued. The clock keeps that
// count to itself, so the test reads the length of its event heap.
func pendingEvents(clk *clock.Virtual) int {
	return reflect.ValueOf(clk).Elem().FieldByName("heap").Len()
}
