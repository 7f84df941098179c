package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
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
	handleView(ms, view(100)) // s2 never answers either view
	time.Sleep(400 * time.Millisecond)
	// The second view queues for the lock first, then the first view's
	// timer fires and queues behind it.
	s.mu.Lock()
	installed := make(chan struct{})
	go func() {
		handleView(ms, view(101))
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

// TestRealClockQueuedViewsInOrder hands the movie group's view handler two
// views back to back on the real clock, as two installs in quick succession
// do. Each is handled once, in the order it came: the first leaves the server
// alone, so it deals itself the one known client at once; the second adds a
// silent peer, so its exchange goes out and waits for it.
func TestRealClockQueuedViewsInOrder(t *testing.T) {
	network := netsim.New(clock.Real{}, 1, netsim.LAN())
	cat := store.NewCatalog()
	cat.Add(mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1}))
	// The exchange would time out after two sync intervals: far beyond the test.
	s, err := New(Config{ID: "s1", Clock: clock.Real{}, Network: network, Catalog: cat, Peers: []string{"s1"}, SyncInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ms := s.movies["m"]
	handled := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return ms.view.ID.Seq != 0 && len(ms.views) == 0
	}
	wait := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); !handled(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s within 3 s", what)
			}
		}
	}
	wait("no singleton view")
	s.mu.Lock()
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30, SentAt: 1})
	s.mu.Unlock()

	alone := gcs.View{Group: movieGroup("m"), ID: gcs.ViewID{Seq: 100, Coord: "s1"}, Members: []gcs.ProcessID{"s1"}}
	pair := gcs.View{Group: movieGroup("m"), ID: gcs.ViewID{Seq: 101, Coord: "s1"}, Members: []gcs.ProcessID{"s1", "s2"}}
	ms.queueView(alone)
	ms.queueView(pair)
	wait("the two views were not both handled")

	s.mu.Lock()
	defer s.mu.Unlock()
	if ms.view.ID != pair.ID || ms.ex.seq != pair.ID.Seq {
		t.Errorf("handled last: view %v with exchange seq %d, want %v still exchanging", ms.view.ID, ms.ex.seq, pair.ID)
	}
	if s.stats.Takeovers != 1 {
		t.Errorf("%d takeovers, want 1: the lone view deals the client here once", s.stats.Takeovers)
	}
}

// TestRealClockQueuedSessionViewsInOrder hands a session group's view handler
// four views back to back on the real clock: the client in, out, in again and
// out again. Each is handled once, in the order it came, so the session ends
// up lapsed and paused; handled newest first, it would end up streaming.
func TestRealClockQueuedSessionViewsInOrder(t *testing.T) {
	network := netsim.New(clock.Real{}, 1, netsim.LAN())
	cat := store.NewCatalog()
	cat.Add(mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1}))
	s, err := New(Config{ID: "s1", Clock: clock.Real{}, Network: network, Catalog: cat, Peers: []string{"s1"}, SyncInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	movie, err := cat.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sess := s.startSessionLocked(wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30}, movie, false)
	s.mu.Unlock()
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
	// The join installs the server alone first; that view is handled too.
	waitFor("no session-group membership", func() bool { return sess.member != nil && len(sess.views) == 0 })

	view := func(seq uint64, members ...gcs.ProcessID) gcs.View {
		return gcs.View{Group: sess.group, ID: gcs.ViewID{Seq: seq, Coord: "s1"}, Members: members}
	}
	sess.queueView(view(100, "c1", "s1"))
	sess.queueView(view(101, "s1"))
	sess.queueView(view(102, "c1", "s1"))
	sess.queueView(view(103, "s1"))
	waitFor("the four views were not all handled", func() bool { return len(sess.views) == 0 })

	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.ready || !sess.lapsed || sess.pacing {
		t.Errorf("after in, out, in, out: ready %v, lapsed %v, pacing %v, want a lapsed session that does not stream",
			sess.ready, sess.lapsed, sess.pacing)
	}
}

// TestRealClockLeasedViewerStops runs four leased viewers on the real clock,
// whose pacing timers fire on timer goroutines and send each frame from
// inside the callback. One viewer stops mid-stream (its VCR Stop is handled
// under the server lock between two of its sends). The other three keep
// receiving, the stopped one receives nothing more, and once the server's
// Stop returns nothing more is sent to anyone.
func TestRealClockLeasedViewerStops(t *testing.T) {
	network := netsim.New(clock.Real{}, 1, netsim.LAN())
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	s, err := New(Config{ID: "s1", Clock: clock.Real{}, Network: network, Catalog: cat, Peers: []string{"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	var got [4]atomic.Int64
	counts := func() (c [4]int64) {
		for i := range got {
			c[i] = got[i].Load()
		}
		return c
	}
	for i := range got {
		ep, err := network.NewEndpoint(transport.Addr(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(transport.Addr, []byte) { got[i].Add(1) })
	}
	var sessions [4]*session
	s.mu.Lock()
	for i := range sessions {
		id := fmt.Sprintf("v%d", i)
		sessions[i] = s.startSessionLocked(wire.ClientRecord{ClientID: id, ClientAddr: id, Rate: 30, Leased: true}, movie, false)
	}
	s.mu.Unlock()
	waitCounts := func(what string, cond func(c [4]int64) bool) [4]int64 {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if c := counts(); cond(c) {
				return c
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s within 3 s: received %v", what, counts())
			}
		}
	}
	start := waitCounts("every viewer has five frames", func(c [4]int64) bool { return min(c[0], c[1], c[2], c[3]) >= 5 })

	s.mu.Lock()
	s.handleVCRLocked(sessions[1], &wire.VCR{ClientID: "v1", Op: wire.VCRStop})
	s.mu.Unlock()
	time.Sleep(20 * time.Millisecond) // a frame already in flight lands
	stopped := got[1].Load()
	waitCounts("the other viewers keep receiving", func(c [4]int64) bool {
		return min(c[0]-start[0], c[2]-start[2], c[3]-start[3]) >= 10
	})
	if n := got[1].Load(); n != stopped {
		t.Errorf("the stopped viewer received %d more frames", n-stopped)
	}

	s.Stop()
	sent := s.Stats().FramesSent
	time.Sleep(20 * time.Millisecond)
	before := counts()
	time.Sleep(200 * time.Millisecond) // six beats' worth
	if n := s.Stats().FramesSent; n != sent {
		t.Errorf("%d frames sent after Stop", n-sent)
	}
	if after := counts(); after != before {
		t.Errorf("viewers received %v after Stop, %v before", after, before)
	}
}
