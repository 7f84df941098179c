package transport_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

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
