package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// TestAllocsSteadyStateDelivery pins the per-packet allocation count of the
// simulated network once its pools are warm: the delivery event, its payload
// buffer, and the clock's timer record are all recycled, so pushing one more
// packet through an idle link must not allocate.
func TestAllocsSteadyStateDelivery(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := New(clk, 1, Profile{Delay: time.Millisecond})
	a, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	b.SetHandler(func(from transport.Addr, payload []byte) { got++ })

	payload := make([]byte, 1200)
	for i := 0; i < 64; i++ { // warm the delivery and buffer pools
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Millisecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warm send/deliver cycle = %v allocs/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("handler never ran")
	}
}

// TestAllocsSendToDeadDestination: protocols keep addressing peers that are
// down — crashed, or listed but never started — for as long as a run lasts,
// and discard the result. Neither send may allocate, and the never-bound one
// must still say ErrNoRoute.
func TestAllocsSendToDeadDestination(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := New(clk, 1, Profile{Delay: time.Millisecond})
	a, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewEndpoint("crashed"); err != nil {
		t.Fatal(err)
	}
	net.Crash("crashed")
	refs := a.(transport.RefSender)
	ghostRef := refs.ResolveAddr("ghost")

	payload := make([]byte, 1200)
	for i := 0; i < 64; i++ { // warm the delivery pool for the crashed case
		_ = a.Send("crashed", payload)
		clk.Advance(2 * time.Millisecond)
	}
	for name, send := range map[string]func() error{
		"crashed":           func() error { return a.Send("crashed", payload) },
		"never bound":       func() error { return a.Send("ghost", payload) },
		"never bound (ref)": func() error { return refs.SendStableRef(ghostRef, payload) },
	} {
		var last error
		allocs := testing.AllocsPerRun(1000, func() {
			last = send()
			clk.Advance(2 * time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("send to %s destination = %v allocs/op, want 0", name, allocs)
		}
		if name != "crashed" && !errors.Is(last, transport.ErrNoRoute) {
			t.Errorf("send to %s destination = %v, want ErrNoRoute", name, last)
		}
	}
}
