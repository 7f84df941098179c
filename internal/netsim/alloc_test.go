package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

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
// warm. Each send takes a bare record, carved from a slab, and gives it a
// buffer of its own size class, carved from the byte slab; the only
// per-record allocation left is the bound run method.
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

// queueClock holds what is scheduled on it until fire runs it all, in order.
// Its queue is sized up front, so scheduling on it allocates nothing and a
// count taken around sends on it is the network's own.
type queueClock struct{ due []func() }

func (c *queueClock) Now() time.Time { return time.Unix(0, 0) }
func (c *queueClock) AfterFunc(_ time.Duration, fn func()) clock.Timer {
	c.due = append(c.due, fn)
	return nil
}
func (c *queueClock) fire() {
	for _, fn := range c.due {
		fn()
	}
	c.due = c.due[:0]
}

// TestStableSendsTakeBareRecords: a video frame sent stable is aliased, so
// its record needs no copy buffer, and must not use up a record that has one.
// After a burst of copied control packets has come and gone, a burst of stable
// frames carves bare records and allocates no buffer bytes; a second control
// burst sent while the frames are still in flight finds its class's records
// waiting and allocates nothing.
func TestStableSendsTakeBareRecords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(delivery{}) != 64 {
		t.Errorf("a delivery record is %d B, want 64", unsafe.Sizeof(delivery{}))
	}
	const sends = 1000
	control, frame := make([]byte, 100), make([]byte, 1200)
	var stableMallocs, controlMallocs uint64 = ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ { // the least of three: the runtime allocates now and then too
		clk := &queueClock{due: make([]func(), 0, 2*sends)}
		net := New(clk, 1, Profile{Delay: time.Millisecond})
		a, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := net.NewEndpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		b.SetHandler(func(transport.Addr, []byte) {})
		refs := a.(transport.RefSender)
		bRef := refs.ResolveAddr("b")
		burst := func(send func() error) (mallocs uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < sends; i++ {
				if err := send(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		copied := func() error { return a.Send("b", control) }
		stable := func() error { return refs.SendStableRef(bRef, frame) }

		burst(copied)
		clk.fire()
		stableMallocs = min(stableMallocs, burst(stable))
		controlMallocs = min(controlMallocs, burst(copied))
		clk.fire()
	}
	// A frame-sized copy buffer would be an allocation of its own per send.
	recordSlabs := (sends + deliverySlabSize - 1) / deliverySlabSize
	if want := uint64(recordSlabs + sends); stableMallocs > want {
		t.Errorf("%d stable sends behind a drained control burst = %d allocs, want ≤ %d (%d record slabs + one bound method each)",
			sends, stableMallocs, want, recordSlabs)
	}
	if controlMallocs != 0 {
		t.Errorf("a second burst of %d copied %d B sends allocated %d times, want 0 (the class's records are free)",
			sends, len(control), controlMallocs)
	}
}
