package transport_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestUDPSourceAddrIdentity pins what protocol code keys its peer tables on:
// the from a handler sees is byte-for-byte the sender's own Addr, on an IPv4
// socket and on a dual-stack wildcard socket alike — the latter reports IPv4
// sources in ::ffff:a.b.c.d form, which the endpoint unmaps.
func TestUDPSourceAddrIdentity(t *testing.T) {
	for _, bind := range []string{":0", "127.0.0.1:0"} {
		t.Run(bind, func(t *testing.T) {
			recv, err := transport.ListenUDP(bind, "")
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := transport.ListenUDP("127.0.0.1:0", "")
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			got := make(chan transport.Addr, 1)
			recv.SetHandler(func(from transport.Addr, _ []byte) { got <- from })
			_, port, err := net.SplitHostPort(string(recv.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			to := transport.Addr(net.JoinHostPort("127.0.0.1", port))
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
			send.SetHandler(func(transport.Addr, []byte) { replied <- struct{}{} })
			if err := recv.Send(send.Addr(), []byte("y")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-replied:
			case <-time.After(2 * time.Second):
				t.Fatal("reply never arrived")
			}
			if n := recv.PeerCacheLen(); n != 1 {
				t.Fatalf("receive then reply used %d cache entries, want the same 1", n)
			}
		})
	}
}

// TestAllocsUDPSendReceive pins the steady state of the real-socket path:
// once two endpoints know each other, a datagram costs no allocation on the
// sending side (cached socket address) or the receiving side (source resolved
// through the cache instead of a fresh net.UDPAddr and its String). Each
// round trip is two sends and two receives, in lockstep so loopback drops
// nothing.
func TestAllocsUDPSendReceive(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := []byte("frame")
	back := make(chan struct{})
	b.SetHandler(func(from transport.Addr, p []byte) { _ = b.Send(from, p) })
	a.SetHandler(func(transport.Addr, []byte) { back <- struct{}{} })
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send(b.Addr(), payload); err != nil {
				t.Fatal(err)
			}
			select {
			case <-back:
			case <-timeout.C:
				t.Fatal("echo never arrived")
			}
		}
	}

	roundTrips(50) // warm: both caches, both indexes
	const trips = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(trips)
	runtime.ReadMemStats(&after)
	perDatagram := float64(after.Mallocs-before.Mallocs) / (2 * trips)
	if perDatagram > 0.05 {
		t.Fatalf("warm UDP path = %.3f allocs per datagram over %d datagrams, want ≤ 0.05", perDatagram, 2*trips)
	}
	t.Logf("warm UDP path = %.3f allocs per datagram", perDatagram)
}
