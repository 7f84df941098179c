package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

var sweepPayload = []byte("sweep")

// forceSweep makes the next send on n run the stale-link sweep, and performs
// it from a bystander pair so the rows under test are not being written.
func forceSweep(t *testing.T, n *Network, bystander transport.Endpoint, to transport.Addr) {
	t.Helper()
	n.mu.Lock()
	n.sweepIn = 1
	n.mu.Unlock()
	if err := bystander.Send(to, sweepPayload); err != nil {
		t.Fatal(err)
	}
}

// TestClosedEndpointsKeepNoLinkRows is the unbounded-link-state guard for
// rows that keep their storage: a live endpoint's drained row survives a
// sweep empty but allocated, and all of it goes when the endpoint closes —
// at Close when the row has drained, at the first sweep after it drains when
// Close found packets still on the wire. A thousand departed viewers leave
// nothing behind.
func TestClosedEndpointsKeepNoLinkRows(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(clk, 1, LAN()) // bandwidth-limited, so every send books a horizon
	srv, err := n.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(func(transport.Addr, []byte) {})
	bystander, err := n.NewEndpoint("bystander")
	if err != nil {
		t.Fatal(err)
	}

	const viewers = 1000
	eps := make([]transport.Endpoint, viewers)
	send := func(i int) {
		t.Helper()
		if err := eps[i].Send("server", []byte("renew")); err != nil {
			t.Fatal(err)
		}
	}
	for i := range eps {
		if eps[i], err = n.NewEndpoint(transport.Addr(fmt.Sprintf("viewer-%d", i))); err != nil {
			t.Fatal(err)
		}
		send(i)
	}
	row := func(i int) *linkRow { return &n.rows[eps[i].(*endpoint).id] }

	clk.Advance(time.Second) // every horizon drains
	forceSweep(t, n, bystander, "server")
	for i := range eps {
		if r := row(i); len(r.toIDs) != 0 || len(r.next) != 0 || cap(r.toIDs) == 0 || cap(r.next) == 0 {
			t.Fatalf("live viewer %d after sweep: len %d/%d cap %d/%d, want drained but retained",
				i, len(r.toIDs), len(r.next), cap(r.toIDs), cap(r.next))
		}
	}

	// Odd viewers leave with a packet still serializing.
	for i := range eps {
		if i%2 == 1 {
			send(i)
		}
		if err := eps[i].Close(); err != nil {
			t.Fatal(err)
		}
		if r := row(i); i%2 == 0 && (r.toIDs != nil || r.next != nil) {
			t.Fatalf("viewer %d closed with a drained row but kept its storage", i)
		} else if i%2 == 1 && len(r.next) != 1 {
			t.Fatalf("viewer %d closed mid-send: %d horizons kept, want 1", i, len(r.next))
		}
	}
	clk.Advance(time.Second)
	forceSweep(t, n, bystander, "server")
	for i := range eps {
		if r := row(i); r.toIDs != nil || r.next != nil || r.dense != nil {
			t.Fatalf("closed viewer %d still holds link-row storage after the sweep", i)
		}
	}
}

// TestAllocsSmallRowAcrossSweep: a viewer's link row is drained at nearly
// every sweep (it sends a renew every few seconds), so the send after a sweep
// must find the row's storage still there.
func TestAllocsSmallRowAcrossSweep(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(clk, 1, LAN())
	viewer, err := n.NewEndpoint("viewer")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := n.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(func(transport.Addr, []byte) {})
	bystander, err := n.NewEndpoint("bystander")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("renew")
	cycle := func() {
		if err := viewer.Send("server", payload); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		forceSweep(t, n, bystander, "server")
		clk.Advance(time.Second)
	}
	for i := 0; i < 8; i++ { // warm the delivery pool
		cycle()
	}
	if r := &n.rows[viewer.(*endpoint).id]; len(r.toIDs) != 0 || cap(r.toIDs) == 0 {
		t.Fatalf("swept row: len %d cap %d, want drained but retained", len(r.toIDs), cap(r.toIDs))
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("send / drain / sweep cycle = %v allocs, want 0", allocs)
	}
}
