package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

func TestUDPPeerCacheEviction(t *testing.T) {
	reg := obs.NewRegistry("a", nil)
	a, err := transport.ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetPeerCacheLimit(8)

	// Sends to distinct (unreachable but resolvable) peers populate the
	// cache past its limit; eviction must bound it.
	for i := 0; i < 40; i++ {
		_ = a.Send(transport.Addr(fmt.Sprintf("127.0.0.1:%d", 20000+i)), []byte("x"))
	}
	if n := a.PeerCacheLen(); n > 8 {
		t.Fatalf("peer cache holds %d entries, want ≤ 8", n)
	}
	snap := reg.Snapshot()
	if ev := snap.Counters["transport.peer_evictions"]; ev < 32 {
		t.Fatalf("peer_evictions = %d, want ≥ 32", ev)
	}
	if sent := snap.Counters["transport.sent_datagrams"]; sent != 40 {
		t.Fatalf("sent_datagrams = %d, want 40", sent)
	}

	// An evicted peer is still reachable — re-resolved on demand.
	if err := a.Send("127.0.0.1:20000", []byte("y")); err != nil {
		t.Fatalf("send to evicted peer: %v", err)
	}
}

// TestUDPPeerCacheBoundsSources is the same bound seen from the receive side:
// peers first heard from (not sent to) enter the one cache, the source index
// never holds an entry the cache has evicted, and an evicted source is simply
// named again when it next speaks.
func TestUDPPeerCacheBoundsSources(t *testing.T) {
	reg := obs.NewRegistry("r", nil)
	recv, err := transport.ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetPeerCacheLimit(8)
	got := make(chan transport.Addr, 1)
	recv.SetHandler(func(from transport.Addr, _ []byte) { got <- from })

	deliver := func(s *transport.UDPEndpoint) {
		t.Helper()
		if err := s.Send(recv.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case from := <-got:
			if from != s.Addr() {
				t.Fatalf("from = %q, want %q", from, s.Addr())
			}
		case <-time.After(2 * time.Second):
			t.Fatal("datagram never arrived")
		}
		fwd, rev := recv.PeerCacheLen(), recv.SourceIndexLen()
		if fwd != rev || fwd > 8 {
			t.Fatalf("peer cache %d entries, source index %d: want equal and ≤ 8", fwd, rev)
		}
	}
	senders := make([]*transport.UDPEndpoint, 64)
	for i := range senders {
		s, err := transport.ListenUDP("127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		senders[i] = s
		deliver(s)
	}
	if ev := reg.Snapshot().Counters["transport.peer_evictions"]; ev != 56 {
		t.Fatalf("peer_evictions = %d, want 56", ev)
	}
	deliver(senders[0]) // long evicted
}

func TestUDPSendReusesCachedPeer(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send("127.0.0.1:20099", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.PeerCacheLen(); n != 1 {
		t.Fatalf("peer cache holds %d entries after sends to one peer, want 1", n)
	}
}

// TestUDPCloseSendSetHandlerRace drives Send, SetHandler and Close
// concurrently; under -race this guards the endpoint's lifecycle
// locking (the satellite fix for the read-loop hot spin sits on the
// same paths).
func TestUDPCloseSendSetHandlerRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		reg := obs.NewRegistry("a", nil)
		a, err := transport.ListenUDP("127.0.0.1:0", "", reg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := transport.ListenUDP("127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				_ = a.Send(b.Addr(), []byte("payload"))
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				a.SetHandler(func(transport.Addr, []byte) {})
				a.SetHandler(nil)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
			_ = a.Close()
		}()
		close(start)
		wg.Wait()
		_ = a.Close()
		_ = b.Close()
	}
}

func TestUDPObsRecvCounters(t *testing.T) {
	regA := obs.NewRegistry("a", nil)
	regB := obs.NewRegistry("b", nil)
	a, err := transport.ListenUDP("127.0.0.1:0", "", regA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0", "", regB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan struct{}, 1)
	b.SetHandler(func(transport.Addr, []byte) { got <- struct{}{} })
	msg := []byte("counted")
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}

	snapA := regA.Snapshot()
	if snapA.Counters["transport.sent_datagrams"] != 1 {
		t.Fatalf("sender counters = %v", snapA.Counters)
	}
	if snapA.Counters["transport.sent_bytes"] != uint64(len(msg)) {
		t.Fatalf("sent_bytes = %d, want %d", snapA.Counters["transport.sent_bytes"], len(msg))
	}
	snapB := regB.Snapshot()
	if snapB.Counters["transport.recv_datagrams"] < 1 {
		t.Fatalf("receiver counters = %v", snapB.Counters)
	}
	if snapB.Counters["transport.recv_bytes"] < uint64(len(msg)) {
		t.Fatalf("recv_bytes = %d, want ≥ %d", snapB.Counters["transport.recv_bytes"], len(msg))
	}
}

func TestUDPOversizedCounted(t *testing.T) {
	reg := obs.NewRegistry("a", nil)
	a, err := transport.ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := make([]byte, transport.MaxDatagram+1)
	_ = a.Send(a.Addr(), big)
	if got := reg.Snapshot().Counters["transport.send_oversized"]; got != 1 {
		t.Fatalf("send_oversized = %d, want 1", got)
	}
}
