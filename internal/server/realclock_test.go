package server

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRealClockExchangeTimeoutIsPerView installs two views within one
// exchange timeout on the real clock, the first view's timer firing while
// the second view waits for the lock: that callback must not end the second
// view's exchange, which waits out its own timeout.
func TestRealClockExchangeTimeoutIsPerView(t *testing.T) {
	const syncInterval = 250 * time.Millisecond // the exchange times out after 500 ms
	network := netsim.New(clock.Real{}, 1, netsim.LAN())
	cat := store.NewCatalog()
	cat.Add(mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1}))
	s, err := New(Config{ID: "s1", Clock: clock.Real{}, Network: network, Catalog: cat, Peers: []string{"s1"}, SyncInterval: syncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ms := s.movies["m"]
	// waitFor polls cond under s.mu.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			s.mu.Lock()
			ok := cond()
			s.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s within 3 s", what)
			}
		}
	}
	waitFor("no singleton view", func() bool { return ms.view.ID.Seq != 0 })
	s.mu.Lock()
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30, SentAt: 1})
	s.mu.Unlock()

	view := func(seq uint64) gcs.View {
		return gcs.View{Group: movieGroup("m"), ID: gcs.ViewID{Seq: seq, Coord: "s1"}, Members: []gcs.ProcessID{"s1", "s2"}}
	}
	start := time.Now()
	ms.onView(view(100)) // s2 never answers either view
	time.Sleep(400 * time.Millisecond)
	// The second view queues for the lock first, then the first view's
	// timer fires and queues behind it.
	s.mu.Lock()
	installed := make(chan struct{})
	go func() {
		ms.onView(view(101))
		close(installed)
	}()
	time.Sleep(time.Until(start.Add(650 * time.Millisecond)))
	s.mu.Unlock()
	<-installed
	time.Sleep(50 * time.Millisecond) // the first view's callback runs

	s.mu.Lock()
	seq := ms.ex.seq
	s.mu.Unlock()
	if seq != 101 {
		t.Fatalf("%v after the first view: exchange seq %d, want the second view's (101) still pending", time.Since(start), seq)
	}
	waitFor("the second view's exchange did not time out", func() bool { return ms.ex.seq == 0 && s.stats.Takeovers == 1 })
}
