package netsim

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	clk *clock.Virtual
	net *Network
}

func newRig(t *testing.T, prof Profile) *rig {
	t.Helper()
	clk := clock.NewVirtual(simEpoch)
	return &rig{clk: clk, net: New(clk, 42, prof)}
}

// counters is a network's netsim.* counters.
type counters struct{ sent, delivered, dropped, bytes uint64 }

// countersOf reads the netsim.* counters of reg.
func countersOf(reg *obs.Registry) counters {
	return counters{reg.Value("netsim.sent"), reg.Value("netsim.delivered"), reg.Value("netsim.dropped"), reg.Value("netsim.delivered_bytes")}
}

// counted attaches a fresh registry to n and returns a reader of its
// netsim.* counters.
func counted(n *Network) func() counters {
	reg := obs.NewRegistry("net", nil)
	n.SetObs(reg)
	return func() counters { return countersOf(reg) }
}

func (r *rig) endpoint(t *testing.T, name transport.Addr) transport.Endpoint {
	t.Helper()
	ep, err := r.net.NewEndpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestDeliveryWithDelay(t *testing.T) {
	r := newRig(t, Profile{Delay: 10 * time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")

	var arrivedAt time.Time
	b.SetHandler(func(from transport.Addr, p []byte) {
		arrivedAt = r.clk.Now()
		if from != "a" || string(p) != "ping" {
			t.Errorf("got %q from %q", p, from)
		}
	})
	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	r.clk.Drain(0)
	if want := simEpoch.Add(10 * time.Millisecond); !arrivedAt.Equal(want) {
		t.Fatalf("arrived at %v, want %v", arrivedAt, want)
	}
}

func TestZeroJitterPreservesFIFO(t *testing.T) {
	r := newRig(t, LAN())
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var got []byte
	b.SetHandler(func(_ transport.Addr, p []byte) { got = append(got, p[0]) })
	for i := byte(0); i < 100; i++ {
		if err := a.Send("b", []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	r.clk.Drain(0)
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100 (LAN must not lose packets)", len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("LAN reordered packets: position %d holds %d", i, got[i])
		}
	}
}

func TestLossRate(t *testing.T) {
	r := newRig(t, Profile{Loss: 0.5})
	count := counted(r.net)
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	n := 0
	b.SetHandler(func(transport.Addr, []byte) { n++ })
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r.clk.Drain(0)
	if n < total*4/10 || n > total*6/10 {
		t.Fatalf("delivered %d of %d at 50%% loss; outside [40%%, 60%%]", n, total)
	}
	if c := count(); c.sent != total || c.delivered != uint64(n) || c.dropped != uint64(total-n) {
		t.Fatalf("counters %+v inconsistent with delivered=%d", c, n)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 bytes/sec: a 500-byte packet takes 500ms to serialize. Two
	// back-to-back packets queue: second arrives 500ms after the first.
	r := newRig(t, Profile{Bandwidth: 1000})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var arrivals []time.Duration
	b.SetHandler(func(transport.Addr, []byte) {
		arrivals = append(arrivals, r.clk.Now().Sub(simEpoch))
	})
	payload := make([]byte, 500)
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	r.clk.Drain(0)
	want := []time.Duration{500 * time.Millisecond, time.Second}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	r := newRig(t, Profile{Duplicate: 1.0})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	n := 0
	b.SetHandler(func(transport.Addr, []byte) { n++ })
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.clk.Drain(0)
	if n != 2 {
		t.Fatalf("delivered %d copies, want 2", n)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	r := newRig(t, Profile{})
	a := r.endpoint(t, "a")
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("Send to unknown = %v, want ErrNoRoute", err)
	}
}

func TestBindDuplicateAddr(t *testing.T) {
	r := newRig(t, Profile{})
	r.endpoint(t, "a")
	if _, err := r.net.NewEndpoint("a"); !errors.Is(err, transport.ErrAddrInUse) {
		t.Fatalf("duplicate bind = %v, want ErrAddrInUse", err)
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	r := newRig(t, Profile{Delay: time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	n := 0
	b.SetHandler(func(transport.Addr, []byte) { n++ })

	r.net.Crash("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("send to crashed node = %v, want nil (silent drop)", err)
	}
	r.clk.Drain(0)
	if n != 0 {
		t.Fatal("crashed node received a packet")
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send from crashed node = %v, want ErrClosed", err)
	}
}

func TestCrashInFlightStillArrives(t *testing.T) {
	r := newRig(t, Profile{Delay: 10 * time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	n := 0
	b.SetHandler(func(transport.Addr, []byte) { n++ })
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.net.Crash("a") // sender dies after the packet left its NIC
	r.clk.Drain(0)
	if n != 1 {
		t.Fatalf("in-flight packet from crashed sender: delivered %d, want 1", n)
	}
}

// TestHorizonSurvivesCrashAndRebind: a link's serialization horizon models
// packets that already left the sender's NIC, so it outlives the sender. A
// sender crashed mid-serialization and rebound at once queues its next
// packet behind the pre-crash one; rebound after that horizon has drained,
// it pays only its own serialization. TestResetMatchesNew checks that Reset
// forgets every horizon.
func TestHorizonSurvivesCrashAndRebind(t *testing.T) {
	r := newRig(t, Profile{Bandwidth: 1000}) // a 500 B packet serializes for 500 ms
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var arrivals []time.Duration
	b.SetHandler(func(transport.Addr, []byte) { arrivals = append(arrivals, r.clk.Now().Sub(simEpoch)) })
	payload := make([]byte, 500)
	send := func() {
		t.Helper()
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	}
	crashRebindSend := func() {
		t.Helper()
		r.net.Crash("a")
		a = r.endpoint(t, "a")
		send()
	}
	send()
	r.clk.Advance(100 * time.Millisecond)
	crashRebindSend()                      // the first packet serializes until 500 ms
	r.clk.Advance(1900 * time.Millisecond) // the horizon drains at 1 s
	crashRebindSend()
	r.clk.Drain(0)
	want := []time.Duration{500 * time.Millisecond, time.Second, 2500 * time.Millisecond}
	if !slices.Equal(arrivals, want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	r := newRig(t, Profile{Delay: time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	c := r.endpoint(t, "c")
	counts := map[transport.Addr]int{}
	for name, ep := range map[transport.Addr]transport.Endpoint{"a": a, "b": b, "c": c} {
		name := name
		ep.SetHandler(func(transport.Addr, []byte) { counts[name]++ })
	}

	r.net.Partition([]transport.Addr{"a"}, []transport.Addr{"b", "c"})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.clk.Drain(0)
	if counts["a"] != 0 || counts["b"] != 0 {
		t.Fatalf("partitioned traffic leaked: %v", counts)
	}
	if counts["c"] != 1 {
		t.Fatalf("intra-partition traffic blocked: %v", counts)
	}

	r.net.Heal()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.clk.Drain(0)
	if counts["b"] != 1 {
		t.Fatalf("traffic after Heal: %v", counts)
	}
}

func TestLinkDownIsBidirectional(t *testing.T) {
	r := newRig(t, Profile{})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	n := 0
	h := func(transport.Addr, []byte) { n++ }
	a.SetHandler(h)
	b.SetHandler(h)
	r.net.SetLinkDown("a", "b", true)
	_ = a.Send("b", []byte("x"))
	_ = b.Send("a", []byte("x"))
	r.clk.Drain(0)
	if n != 0 {
		t.Fatalf("link-down leaked %d packets", n)
	}
	r.net.SetLinkDown("a", "b", false)
	_ = a.Send("b", []byte("x"))
	r.clk.Drain(0)
	if n != 1 {
		t.Fatalf("link restore failed: %d packets", n)
	}
}

func TestSenderBufferReuseIsSafe(t *testing.T) {
	r := newRig(t, Profile{Delay: time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var got string
	b.SetHandler(func(_ transport.Addr, p []byte) { got = string(p) })
	buf := []byte("before")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "MUTATE")
	r.clk.Drain(0)
	if got != "before" {
		t.Fatalf("delivered payload %q reflects sender mutation", got)
	}
}

// TestSlabBuffersStayApart: small copy buffers are neighbours in one byte
// slab, so a record must never write past its own — not while its neighbours
// are in flight, and not when a bare record from a larger burst comes back off
// the free list for a payload of another class, across the 512 B line where
// buffers stop coming from the slab and back down.
func TestSlabBuffersStayApart(t *testing.T) {
	r := newRig(t, Profile{Delay: time.Millisecond})
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var got [][]byte
	b.SetHandler(func(_ transport.Addr, p []byte) { got = append(got, bytes.Clone(p)) })
	const inFlight = 200
	for round, size := range []int{10, 64, 65, 300, 512, 513, 4096, 40} {
		got = got[:0]
		for i := 0; i < inFlight; i++ {
			if err := a.Send("b", bytes.Repeat([]byte{byte(i)}, size+i%3)); err != nil {
				t.Fatal(err)
			}
		}
		r.clk.Drain(0)
		if len(got) != inFlight {
			t.Fatalf("round %d: %d of %d packets delivered", round, len(got), inFlight)
		}
		for i, p := range got {
			if want := bytes.Repeat([]byte{byte(i)}, size+i%3); !bytes.Equal(p, want) {
				t.Fatalf("round %d: packet %d (%d B) arrived overwritten: % x…", round, i, len(want), p[:min(len(p), 8)])
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		clk := clock.NewVirtual(simEpoch)
		net := New(clk, 7, WAN())
		a, _ := net.NewEndpoint("a")
		b, _ := net.NewEndpoint("b")
		var arrivals []time.Duration
		b.SetHandler(func(transport.Addr, []byte) {
			arrivals = append(arrivals, clk.Now().Sub(simEpoch))
		})
		for i := 0; i < 200; i++ {
			_ = a.Send("b", make([]byte, 100))
		}
		clk.Drain(0)
		return arrivals
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("replay lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestWANProfileReordersAndLoses(t *testing.T) {
	r := newRig(t, WAN())
	a := r.endpoint(t, "a")
	b := r.endpoint(t, "b")
	var seq []int
	b.SetHandler(func(_ transport.Addr, p []byte) {
		seq = append(seq, int(p[0])<<8|int(p[1]))
	})
	const total = 1000
	for i := 0; i < total; i++ {
		_ = a.Send("b", []byte{byte(i >> 8), byte(i)})
	}
	r.clk.Drain(0)
	if len(seq) == total {
		t.Fatal("WAN profile lost no packets out of 1000 at 0.5% loss")
	}
	reordered := false
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("WAN profile produced no reordering")
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	clk := clock.NewVirtual(simEpoch)
	net := New(clk, 1, LAN())
	src, _ := net.NewEndpoint("src")
	dst, _ := net.NewEndpoint("dst")
	dst.SetHandler(func(transport.Addr, []byte) {})
	payload := make([]byte, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Send("dst", payload)
		clk.Drain(0)
	}
}
