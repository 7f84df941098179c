package server_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

// TestPacingMechanismFollowsTier: one server paces its leased viewers on
// stripes and its session-group viewers on dedicated timers, at the same
// time. The observable is the clock's standing event count. Leased viewers
// that open at the same instant share one stripe ticker, and opening them a
// few milliseconds apart instead puts each in its own phase slot — one more
// standing event per viewer after the first. Session-group viewers hold a
// timer each however they arrive, so spreading them changes nothing.
func TestPacingMechanismFollowsTier(t *testing.T) {
	const k = 4
	// 4 ms between opens: a stripe phase slot is 1/16 of the 33.3 ms frame
	// period, so every viewer lands in a slot of its own.
	const gap = 4 * time.Millisecond

	standing := func(spreadLeased, spreadGroup bool) int {
		// A delay-free network: nothing is in flight between clock steps,
		// so Len counts timers only.
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
		// Past the start-up emergency boosts: every session is back at the
		// movie's nominal rate.
		r.clk.AdvanceTo(epoch.Add(15 * time.Second))
		for _, c := range viewers {
			if got := c.Counters().Displayed; got < 300 {
				t.Fatalf("a viewer displayed %d frames in ≈14s, want ≥ 300", got)
			}
		}
		n := r.clk.Len()
		for _, c := range viewers {
			c.Close()
		}
		r.servers["s1"].Stop()
		return n
	}

	together := standing(false, false)
	if got := standing(true, false); got != together+k-1 {
		t.Errorf("spreading %d leased viewers over phase slots: %d standing events, want %d (one stripe each instead of one shared)", k, got, together+k-1)
	}
	if got := standing(false, true); got != together {
		t.Errorf("spreading %d session-group viewers: %d standing events, want %d (a timer each either way)", k, got, together)
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

// TestLeasedStreamOverPlainEndpoint: the stripe's batched beat must reach
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
