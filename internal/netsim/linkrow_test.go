package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// TestClosedEndpointsKeepNoLinkRows is the unbounded-link-state guard: a
// closed endpoint keeps only the link horizons still in the future at its
// Close. A row that has drained frees its storage at Close; an endpoint
// closed mid-send keeps exactly its future horizons — at most smallRowMax
// entries, or one dense array — until a rebind of its address takes the row
// over, or Reset clears it. A thousand departed viewers leave nothing else
// behind.
func TestClosedEndpointsKeepNoLinkRows(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(clk, 1, LAN()) // bandwidth-limited, so every send books a horizon
	srv, err := n.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(func(transport.Addr, []byte) {})

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
	for i := 1; i < viewers; i += 2 {
		if r := row(i); len(r.toIDs) != 1 || len(r.next) != 1 || r.dense != nil {
			t.Fatalf("closed viewer %d holds %d/%d horizons (dense %v), want the 1 it closed with",
				i, len(r.toIDs), len(r.next), r.dense != nil)
		}
	}

	n.Reset(1, LAN())
	for i, r := range n.rows[:cap(n.rows)] {
		if r.toIDs != nil || r.next != nil || r.dense != nil {
			t.Fatalf("row %d still holds link storage after Reset", i)
		}
	}
}
