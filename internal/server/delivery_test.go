package server

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
)

// TestHandlersRunInTheDeliveringEvent steps a two-server, one-viewer cluster
// one clock event at a time and requires each inbound message to take effect
// in the event that delivered it — the step in which the network's Delivered
// count rose — rather than in a zero-delay event scheduled from there: the
// client's Open gives s1 the session, s1's announcement puts the client in
// s2's knowledge table, and the client's first flow-control request on the
// session group moves the granted rate.
func TestHandlersRunInTheDeliveringEvent(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	network := netsim.New(clk, 1, netsim.LAN())
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 30 * time.Second, Seed: 1})
	peers := []string{"s1", "s2"}
	servers := map[string]*Server{}
	for _, id := range peers {
		cat := store.NewCatalog()
		cat.Add(movie)
		s, err := New(Config{ID: id, Clock: clk, Network: network, Catalog: cat, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		servers[id] = s
	}
	clk.Advance(3 * time.Second) // the movie group settles on {s1, s2}
	s1, s2 := servers["s1"], servers["s2"]

	c, err := client.New(client.Config{ID: "c1", Clock: clk, Network: network, Servers: []string{"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}

	effects := []struct {
		name  string
		holds func() bool
		seen  bool
	}{
		{name: "Open starts the session", holds: func() bool { return s1.HasSession("c1") }},
		{name: "peer ClientState reaches the knowledge table", holds: func() bool {
			s2.mu.Lock()
			defer s2.mu.Unlock()
			_, known := s2.movies["m"].clients["c1"]
			return known
		}},
		{name: "FlowControl changes the granted rate", holds: func() bool {
			s1.mu.Lock()
			defer s1.mu.Unlock()
			sess := s1.sessions["c1"]
			return sess != nil && sess.rate.Rate() != movie.FPS()
		}},
	}
	deadline := clk.Now().Add(20 * time.Second)
	for left := len(effects); left > 0; {
		before := network.Stats().Delivered
		if !clk.Step() || clk.Now().After(deadline) {
			t.Fatalf("%d of %d effects never happened", left, len(effects))
		}
		delivered := network.Stats().Delivered > before
		for i := range effects {
			e := &effects[i]
			if e.seen || !e.holds() {
				continue
			}
			e.seen = true
			left--
			if !delivered {
				t.Errorf("%s: took effect in an event that delivered no packet", e.name)
			}
		}
	}
}
