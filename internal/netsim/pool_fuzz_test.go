package netsim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/transport"
)

// FuzzDeliveryPool decodes its input into a stream of sends through the
// delivery pool and checks every payload that comes out. The ops are copied
// and stable sends of sizes across every buffer class, from 0 B up to
// MaxDatagram; Advance; switching duplication on and off; crashing the
// receiver for a while before rebinding it; and crashing and rebinding the
// sender. The sender overwrites its copy buffer right after every Send, and
// each handler scribbles over the spare capacity of the copy it was handed.
//
// Delivery is FIFO (one fixed delay, no jitter), so what arrives must be the
// sent stream, in order, minus what reached the receiver while it was down:
// byte for byte, a copied payload never aliasing the sender's buffer and
// sized to exactly its class, a stable one aliasing the sender's. After every
// op each free list holds only records of its own kind, and at the end the
// network has counted as dropped exactly the sends that never arrived.
func FuzzDeliveryPool(f *testing.F) {
	f.Add([]byte{})
	// A copied send per class, then the same sizes again from warm records.
	var ladder []byte
	for round := 0; round < 2; round++ {
		for c := byte(0); c < bufClasses; c++ {
			ladder = append(ladder, 0, c, 0xff, 0xff)
		}
		ladder = append(ladder, 2, 1)
	}
	f.Add(ladder)
	// Duplicated stable and copied sends, then a receiver crash across them.
	f.Add([]byte{3, 1, 4, 0, 5, 0, 0, 1, 0, 40, 3, 1, 4, 0, 9, 4, 2, 2, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		in := make([]byte, 64+rng.Intn(448))
		rng.Read(in)
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h := newPoolHarness(t)
		for ops := 0; len(data) > 0 && ops < 256; ops++ {
			data = h.step(t, data)
			h.checkFreeLists(t)
		}
		h.clk.Drain(0)
		h.checkFreeLists(t)
		if missed, dropped := h.missed+len(h.want)-h.next, h.count().dropped; uint64(missed) != dropped {
			t.Fatalf("%d packets never arrived, but the network dropped %d", missed, dropped)
		}
	})
}

// poolSent is one expected delivery: its payload is pattern(id, size).
type poolSent struct {
	id, size int
	stable   bool
	backing  *byte // a stable send's array, which the delivery must alias
}

type poolHarness struct {
	clk     *clock.Virtual
	net     *Network
	a       transport.Endpoint
	scratch []byte // the sender's reused copy-send buffer
	dup     bool
	count   func() counters

	want   []poolSent
	next   int // first entry of want not yet delivered
	missed int // entries skipped over: arrived while the receiver was down
	sent   int
}

func newPoolHarness(t *testing.T) *poolHarness {
	clk := clock.NewVirtual(simEpoch)
	h := &poolHarness{
		clk:     clk,
		net:     New(clk, 1, Profile{Delay: time.Millisecond}),
		scratch: make([]byte, transport.MaxDatagram),
	}
	h.count = counted(h.net)
	h.a = h.bind(t, "a", nil)
	h.bind(t, "b", h.receive(t))
	return h
}

func (h *poolHarness) bind(t *testing.T, addr transport.Addr, fn transport.Handler) transport.Endpoint {
	ep, err := h.net.NewEndpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	if fn != nil {
		ep.SetHandler(fn)
	}
	return ep
}

func pattern(id, i int) byte { return byte(id>>(8*(i%3))) ^ byte(i*7) }

// receive matches each arrival to the earliest outstanding send it could be.
func (h *poolHarness) receive(t *testing.T) transport.Handler {
	return func(_ transport.Addr, p []byte) {
		for i := h.next; i < len(h.want); i++ {
			if w := h.want[i]; h.matches(w, p) {
				h.missed += i - h.next
				h.next = i + 1
				if !w.stable {
					spare := p[len(p):cap(p)]
					for k := range spare {
						spare[k] = 0xee
					}
				}
				return
			}
		}
		t.Fatalf("a %d B payload arrived that matches no outstanding send (%d of %d delivered)", len(p), h.next, len(h.want))
	}
}

func (h *poolHarness) matches(w poolSent, p []byte) bool {
	if len(p) != w.size {
		return false
	}
	for i, b := range p {
		if b != pattern(w.id, i) {
			return false
		}
	}
	at := unsafe.SliceData(p)
	if w.stable {
		return at == w.backing
	}
	return at != unsafe.SliceData(h.scratch) && cap(p) == 64<<bufClass(len(p))
}

// step runs the op at the head of data and returns the rest.
func (h *poolHarness) step(t *testing.T, data []byte) []byte {
	arg := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	switch op := data[0] % 6; op {
	case 0, 1: // copied or stable send: a class, then a size within it
		class := arg(1) % bufClasses
		size := min((arg(2)<<8|arg(3))%(64<<class+1), transport.MaxDatagram)
		h.send(t, size, op == 1)
		return data[min(4, len(data)):]
	case 2:
		h.clk.Advance(time.Duration(arg(1)%4) * time.Millisecond)
	case 3: // every packet sent from now on arrives twice, or once again
		h.dup = !h.dup
		h.net.mu.Lock()
		h.net.def.Duplicate = 0
		if h.dup {
			h.net.def.Duplicate = 1
		}
		h.net.mu.Unlock()
	case 4: // the receiver is down for a while; what reaches it then is lost
		h.net.Crash("b")
		h.clk.Advance(time.Duration(arg(1)%3) * time.Millisecond)
		h.bind(t, "b", h.receive(t))
	case 5: // the sender restarts; its packets in flight still arrive
		h.net.Crash("a")
		h.a = h.bind(t, "a", nil)
		return data[1:]
	}
	return data[min(2, len(data)):]
}

func (h *poolHarness) send(t *testing.T, size int, stable bool) {
	id := h.sent
	h.sent++
	var buf []byte
	if stable {
		buf = make([]byte, size)
	} else {
		buf = h.scratch[:size]
	}
	for i := range buf {
		buf[i] = pattern(id, i)
	}
	w := poolSent{id: id, size: size, stable: stable, backing: unsafe.SliceData(buf)}
	var err error
	if stable {
		err = h.a.(transport.StableSender).SendStable("b", buf)
	} else {
		err = h.a.Send("b", buf)
		for i := range buf { // the sender reuses its buffer at once
			buf[i] = ^buf[i]
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	h.want = append(h.want, w)
	if h.dup {
		h.want = append(h.want, w)
	}
}

// checkFreeLists fails unless the bare list holds only records without a
// buffer and each class list only records whose buffer is exactly its size.
func (h *poolHarness) checkFreeLists(t *testing.T) {
	t.Helper()
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	for slot, d := range h.net.freeD {
		for ; d != nil; d = d.next {
			switch {
			case int(d.slot) != slot:
				t.Fatalf("free list %d holds a record of slot %d", slot, d.slot)
			case slot == 0 && d.data != nil:
				t.Fatalf("a bare record on the free list still holds %d B", len(d.data))
			case slot > 0 && cap(d.data) != 64<<(slot-1):
				t.Fatalf("free list %d holds a record with a %d B buffer, want %d B", slot, cap(d.data), 64<<(slot-1))
			}
		}
	}
}
