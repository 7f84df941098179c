package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// The peer-resolution cache bounds what a UDPEndpoint remembers about the
// peers it sends to and hears from. These tests shrink the bound and read
// the cache and the receive-side source index directly.

func setPeerCacheLimit(e *UDPEndpoint, n int) {
	e.mu.Lock()
	e.maxPeers = n
	e.mu.Unlock()
}

func peerCacheLen(e *UDPEndpoint) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.peers)
}

func sourceIndexLen(e *UDPEndpoint) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sources)
}

func TestUDPPeerCacheEviction(t *testing.T) {
	reg := obs.NewRegistry("a", nil)
	a, err := ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	setPeerCacheLimit(a, 8)

	// Sends to distinct (unreachable but resolvable) peers populate the
	// cache past its limit; eviction must bound it.
	for i := 0; i < 40; i++ {
		_ = a.Send(Addr(fmt.Sprintf("127.0.0.1:%d", 20000+i)), []byte("x"))
	}
	if n := peerCacheLen(a); n > 8 {
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
	recv, err := ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	setPeerCacheLimit(recv, 8)
	got := make(chan Addr, 1)
	recv.SetHandler(func(from Addr, _ []byte) { got <- from })

	deliver := func(s *UDPEndpoint) {
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
		fwd, rev := peerCacheLen(recv), sourceIndexLen(recv)
		if fwd != rev || fwd > 8 {
			t.Fatalf("peer cache %d entries, source index %d: want equal and ≤ 8", fwd, rev)
		}
	}
	senders := make([]*UDPEndpoint, 64)
	for i := range senders {
		s, err := ListenUDP("127.0.0.1:0", "")
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
	a, err := ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send("127.0.0.1:20099", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := peerCacheLen(a); n != 1 {
		t.Fatalf("peer cache holds %d entries after sends to one peer, want 1", n)
	}
}

// TestUDPSourceAddrIdentity pins what protocol code keys its peer tables on:
// the from a handler sees is byte-for-byte the sender's own Addr, on an IPv4
// socket and on a dual-stack wildcard socket alike — the latter reports IPv4
// sources in ::ffff:a.b.c.d form, which the endpoint unmaps.
func TestUDPSourceAddrIdentity(t *testing.T) {
	for _, bind := range []string{":0", "127.0.0.1:0"} {
		t.Run(bind, func(t *testing.T) {
			recv, err := ListenUDP(bind, "")
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := ListenUDP("127.0.0.1:0", "")
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			got := make(chan Addr, 1)
			recv.SetHandler(func(from Addr, _ []byte) { got <- from })
			_, port, err := net.SplitHostPort(string(recv.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			to := Addr(net.JoinHostPort("127.0.0.1", port))
			for i := 0; i < 2; i++ { // first receive fills the index, second hits it
				if err := send.Send(to, []byte("x")); err != nil {
					t.Fatal(err)
				}
				select {
				case from := <-got:
					if from != send.Addr() {
						t.Fatalf("datagram %d: from = %q, sender's Addr = %q", i, from, send.Addr())
					}
				case <-time.After(2 * time.Second):
					t.Fatal("datagram never arrived")
				}
			}
			// The name the receive path made is one Send resolves, and the
			// unmapped address is one either socket family can write to.
			replied := make(chan struct{}, 1)
			send.SetHandler(func(Addr, []byte) { replied <- struct{}{} })
			if err := recv.Send(send.Addr(), []byte("y")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-replied:
			case <-time.After(2 * time.Second):
				t.Fatal("reply never arrived")
			}
			if n := peerCacheLen(recv); n != 1 {
				t.Fatalf("receive then reply used %d cache entries, want the same 1", n)
			}
		})
	}
}
