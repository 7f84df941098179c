package server

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLeasedFramesArriveInTheirTrain: two leased sessions opened at the same
// instant pace on timers due at the same instants, so each beat sends a's
// frame and then b's through the server's egress limit, one serialization
// train. Each frame arrives at its own transit time: a's first, and b's
// exactly its own serialization time later.
func TestLeasedFramesArriveInTheirTrain(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 60 * time.Second, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	// A delay-free network, so an arrival's offset is the egress queue's.
	net := netsim.New(clk, 1, netsim.Profile{})
	s, err := New(Config{ID: "s1", Clock: clk, Network: net, Catalog: cat, Peers: []string{"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	clk.Advance(time.Second)

	const egress = 1000 * 1000 // B/s: a frame of a few kB takes a few ms
	net.SetEgressLimit("s1", egress)
	type arrival struct {
		at   time.Time
		size int
	}
	got := map[string][]arrival{}
	for _, id := range []string{"a", "b"} {
		ep, err := net.NewEndpoint(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(_ transport.Addr, p []byte) {
			got[id] = append(got[id], arrival{clk.Now(), len(p)})
		})
	}
	s.mu.Lock()
	for _, id := range []string{"a", "b"} {
		s.startSessionLocked(wire.ClientRecord{ClientID: id, ClientAddr: id, Rate: 30, Leased: true}, movie, false)
	}
	s.mu.Unlock()
	clk.Advance(3 * time.Second / 2)
	if len(got["a"]) < 40 || len(got["a"]) != len(got["b"]) {
		t.Fatalf("a received %d frames and b %d, want the same number, at least 40", len(got["a"]), len(got["b"]))
	}
	for i, fa := range got["a"] {
		fb := got["b"][i]
		if want := time.Duration(int64(fb.size) * int64(time.Second) / egress); fb.at.Sub(fa.at) != want {
			t.Fatalf("frame %d: b's arrived %v after a's, want %v, its own serialization time", i, fb.at.Sub(fa.at), want)
		}
	}
}
