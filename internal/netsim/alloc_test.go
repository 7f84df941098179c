package netsim

import (
	"errors"
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
	stable := a.(transport.StableSender)

	payload := make([]byte, 1200)
	for i := 0; i < 64; i++ { // warm the delivery pool for the crashed case
		_ = a.Send("crashed", payload)
		clk.Advance(2 * time.Millisecond)
	}
	for name, send := range map[string]func() error{
		"crashed":              func() error { return a.Send("crashed", payload) },
		"never bound":          func() error { return a.Send("ghost", payload) },
		"never bound (stable)": func() error { return stable.SendStable("ghost", payload) },
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

// warmClock returns a Virtual clock that has armed and fired n events, so
// its free list and heap hold n more without allocating: a count taken
// around n sends on it is the network's own. The network's records are the
// clock events' Runners, so the clock binds nothing per send either.
func warmClock(n int) *clock.Virtual {
	clk := clock.NewVirtual(time.Unix(0, 0))
	for i := 0; i < n; i++ {
		clk.Schedule(0, func() {})
	}
	clk.Drain(0)
	return clk
}

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
// buffer of its own size class, carved from the byte slab; the record is its
// own clock event's Runner, so the slabs' share is all a send allocates.
func TestAllocsColdNetworkSmallSends(t *testing.T) {
	const sends, size = 1000, 100 // 100 B rounds up to a 128 B buffer
	payload := make([]byte, size)
	got := coldMallocs(func() func() {
		net := New(warmClock(sends), 1, Profile{Delay: time.Millisecond})
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
	if want := uint64(recordSlabs + byteSlabs); got > want {
		t.Fatalf("%d cold sends of %d B = %d allocs, want ≤ %d (%d record slabs + %d byte slabs)",
			sends, size, got, want, recordSlabs, byteSlabs)
	}
}

// TestAllocsResetWorldReusesRecords: a clock and network that are Reset after
// a saturated burst carry the next world's identical burst on what the first
// one made — event and delivery records, their slabs and copy buffers, and
// the heap array — so the second burst allocates nothing.
func TestAllocsResetWorldReusesRecords(t *testing.T) {
	const sends = 2000
	control, frame := make([]byte, 100), make([]byte, 1200)
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := New(clk, 1, Profile{Delay: time.Millisecond})
	var a transport.Endpoint
	world := func() {
		clk.Reset(time.Unix(0, 0))
		net.Reset(1, Profile{Delay: time.Millisecond})
		net.SetEgressLimit("a", 100*1000*1000/8)
		var err error
		if a, err = net.NewEndpoint("a"); err != nil {
			t.Fatal(err)
		}
		b, err := net.NewEndpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		b.SetHandler(func(transport.Addr, []byte) {})
	}
	burst := func() {
		stable := a.(transport.StableSender)
		for i := 0; i < sends; i++ { // the clock never advances: all of it stays in flight
			if err := a.Send("b", control); err != nil {
				t.Fatal(err)
			}
			if err := stable.SendStable("b", frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	world()
	burst()
	least := ^uint64(0)
	for try := 0; try < 3; try++ { // the least of three: the runtime allocates now and then too
		world()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		burst()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Fatalf("a burst of %d copied and %d stable sends on a reset clock and network = %d allocs, want 0",
			sends, sends, least)
	}
}

// TestStableSendsTakeBareRecords: a video frame sent stable is aliased, so
// its record needs no copy buffer, and must not use up a record that has one.
// After a burst of copied control packets has come and gone, a burst of stable
// frames carves bare records and allocates no buffer bytes; a second control
// burst sent while the frames are still in flight finds its class's records
// waiting and allocates nothing.
func TestStableSendsTakeBareRecords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(delivery{}) != 56 {
		t.Errorf("a delivery record is %d B, want 56", unsafe.Sizeof(delivery{}))
	}
	const sends = 1000
	control, frame := make([]byte, 100), make([]byte, 1200)
	var stableMallocs, controlMallocs uint64 = ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ { // the least of three: the runtime allocates now and then too
		clk := warmClock(2 * sends)
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
		stabler := a.(transport.StableSender)
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
		stable := func() error { return stabler.SendStable("b", frame) }

		burst(copied)
		clk.Advance(time.Second)
		stableMallocs = min(stableMallocs, burst(stable))
		controlMallocs = min(controlMallocs, burst(copied))
		clk.Advance(time.Second)
	}
	// A frame-sized copy buffer would be an allocation of its own per send.
	recordSlabs := (sends + deliverySlabSize - 1) / deliverySlabSize
	if want := uint64(recordSlabs); stableMallocs > want {
		t.Errorf("%d stable sends behind a drained control burst = %d allocs, want ≤ %d (the record slabs)",
			sends, stableMallocs, want)
	}
	if controlMallocs != 0 {
		t.Errorf("a second burst of %d copied %d B sends allocated %d times, want 0 (the class's records are free)",
			sends, len(control), controlMallocs)
	}
}
