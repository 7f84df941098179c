package netsim

import (
	"errors"
	"fmt"
	"runtime"
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

// idleClock never fires: what is scheduled on it stays in flight, and it
// allocates nothing itself, so a count taken around sends on it is the
// network's own.
type idleClock struct{}

func (idleClock) Now() time.Time                              { return time.Unix(0, 0) }
func (idleClock) AfterFunc(time.Duration, func()) clock.Timer { return nil }

// coldMallocs counts the heap allocations of run, which setup returns after
// building a fresh network. The least of three tries is the count: the
// runtime's background goroutines allocate now and then too.
func coldMallocs(setup func() (run func())) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		run := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestAllocsColdNetworkSmallSends pins what a fresh network pays for packets
// it has no pooled records for yet — a saturated uplink holding a thousand
// control packets in flight, or a short-lived chaos world that never gets
// warm. Records and their small copy buffers are both carved from slabs, so
// the only per-record allocation left is the bound run method.
func TestAllocsColdNetworkSmallSends(t *testing.T) {
	const sends, size = 1000, 100 // 100 B rounds up to a 128 B buffer
	payload := make([]byte, size)
	got := coldMallocs(func() func() {
		net := New(idleClock{}, 1, Profile{Delay: time.Millisecond})
		a, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.NewEndpoint("b"); err != nil {
			t.Fatal(err)
		}
		return func() {
			for i := 0; i < sends; i++ {
				if err := a.Send("b", payload); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	recordSlabs := (sends + deliverySlabSize - 1) / deliverySlabSize
	byteSlabs := (sends*128 + bufSlabSize - 1) / bufSlabSize
	if want := uint64(recordSlabs + byteSlabs + sends); got > want {
		t.Fatalf("%d cold sends of %d B = %d allocs, want ≤ %d (%d record slabs + %d byte slabs + one bound method each)",
			sends, size, got, want, recordSlabs, byteSlabs)
	}
}

// TestAllocsColdBroadcastRecord: a fresh broadcast record sizes its two
// slices to the batch once instead of doubling its way up, so a 200-wide
// batch costs the record, its bound method and two slices.
func TestAllocsColdBroadcastRecord(t *testing.T) {
	const width = 200
	frame := make([]byte, 1200)
	got := coldMallocs(func() func() {
		net := New(idleClock{}, 1, Profile{Delay: time.Millisecond})
		a, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		refs := a.(transport.RefSender)
		dsts := make([]transport.AddrRef, width)
		payloads := make([][]byte, width)
		for i := range dsts {
			id := transport.Addr(fmt.Sprintf("viewer-%d", i))
			if _, err := net.NewEndpoint(id); err != nil {
				t.Fatal(err)
			}
			dsts[i], payloads[i] = refs.ResolveAddr(id), frame
		}
		return func() {
			if err := refs.SendStableRefBatch(dsts, payloads); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 4 = record, bound method, dsts, payloads. Under the race detector
	// slices.Grow's append(make) is not fused and each slice costs one more;
	// the doubling ladder cost 19.
	if got > 6 {
		t.Fatalf("a cold %d-wide batch = %d allocs, want 4 (6 under -race)", width, got)
	}
}
