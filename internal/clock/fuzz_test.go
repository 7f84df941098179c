package clock

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// FuzzVirtualOrder decodes its input into a stream of clock operations and
// runs the stream in lockstep on a Virtual clock and on a reference model: a
// slice of pending callbacks kept sorted by (deadline, arming order), which
// is the order the clock promises. After every operation the two must agree
// on which callbacks ran, in what order and at what instant, on what the
// operation returned, on Len and on Now.
//
// The ops are AfterFunc, Schedule, Stop, Release and Rearm (of pending,
// fired and stopped timers), Step, Advance, AdvanceTo (forwards and into the
// past) and Drain with a small limit. A callback may schedule a child at
// zero delay — onto the instant being run — or onto a deadline an earlier op
// already used, so same-instant arrivals during a pass are exercised.
func FuzzVirtualOrder(f *testing.F) {
	f.Add([]byte{})
	// Two timers on one deadline, the first spawning a zero-delay child.
	f.Add([]byte{0, 2, 1, 0, 2, 0, 6, 3})
	// Stop, Rearm of the stopped timer (refused), Rearm of a fired one.
	f.Add([]byte{0, 1, 0, 2, 0, 4, 0, 3, 6, 2, 0, 2, 0, 4, 1, 5, 4, 1, 1, 8, 0})
	// Children onto an already-used deadline, run by Step and AdvanceTo.
	f.Add([]byte{0, 5, 2, 1, 3, 5, 0, 0x80, 2, 5, 5, 5, 7, 15, 8, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		in := make([]byte, 64+rng.Intn(448))
		rng.Read(in)
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h := &orderHarness{c: NewVirtual(testEpoch), data: data}
		for ops := 0; len(h.data) > 0 && ops < 1024; ops++ {
			h.step(t)
		}
	})
}

// childBase numbers the callbacks that callbacks schedule, apart from the
// ones the op stream arms directly.
const childBase = 1 << 20

type orderFire struct {
	id int
	at int64 // nanoseconds after testEpoch
}

// orderHandle is a live (not yet released) AfterFunc timer, with the state
// the model says its record is in.
type orderHandle struct {
	t     Timer
	id    int
	act   byte
	state uint8 // statePending, stateFired or stateStopped
}

type orderPending struct {
	at  int64
	seq uint64
	id  int
	act byte
	h   *orderHandle // nil for Schedule'd callbacks
}

type orderHarness struct {
	c    *Virtual
	data []byte

	used    []int64 // deadlines the op stream armed, as offsets from testEpoch
	handles []*orderHandle
	nextID  int

	got, want         []orderFire
	gotKids, wantKids int

	// The model.
	now     int64
	seq     uint64
	pending []orderPending // sorted by (at, seq)
}

func (h *orderHarness) next() byte {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return b
}

// delay decodes a delay from now: with the high bit set it lands on a
// deadline already used (or now, if that has passed), otherwise it is 0–7 ms.
func (h *orderHarness) delay(b byte) int64 {
	if b&0x80 != 0 && len(h.used) > 0 {
		return max(0, h.used[int(b&0x7f)%len(h.used)]-h.now)
	}
	return int64(b%8) * int64(time.Millisecond)
}

// childDelay is what a callback with action act, run at now, schedules: no
// child, one at zero delay, or one onto an already-used deadline.
func (h *orderHarness) childDelay(act byte, now int64) (int64, bool) {
	switch act % 3 {
	case 1:
		return 0, true
	case 2:
		if len(h.used) == 0 {
			return 0, true
		}
		return max(0, h.used[int(act/3)%len(h.used)]-now), true
	}
	return 0, false
}

func (h *orderHarness) sinceEpoch() int64 { return h.c.Now().Sub(testEpoch).Nanoseconds() }

// fn is the real callback for an op-stream arm.
func (h *orderHarness) fn(id int, act byte) func() {
	return func() {
		at := h.sinceEpoch()
		h.got = append(h.got, orderFire{id, at})
		if d, ok := h.childDelay(act, at); ok {
			kid := childBase + h.gotKids
			h.gotKids++
			h.c.Schedule(time.Duration(d), func() {
				h.got = append(h.got, orderFire{kid, h.sinceEpoch()})
			})
		}
	}
}

func (h *orderHarness) modelArm(p orderPending) {
	p.seq = h.seq
	h.seq++
	i := len(h.pending)
	for i > 0 && h.pending[i-1].at > p.at {
		i--
	}
	h.pending = slices.Insert(h.pending, i, p)
}

func (h *orderHarness) modelRemove(id int) {
	i := slices.IndexFunc(h.pending, func(p orderPending) bool { return p.id == id })
	h.pending = slices.Delete(h.pending, i, i+1)
}

func (h *orderHarness) modelFire() {
	p := h.pending[0]
	h.pending = slices.Delete(h.pending, 0, 1)
	h.now = max(h.now, p.at)
	h.want = append(h.want, orderFire{p.id, h.now})
	if p.h != nil {
		p.h.state = stateFired
	}
	if d, ok := h.childDelay(p.act, h.now); ok {
		h.modelArm(orderPending{at: h.now + d, id: childBase + h.wantKids})
		h.wantKids++
	}
}

func (h *orderHarness) modelAdvanceTo(limit int64) int {
	n := 0
	for len(h.pending) > 0 && h.pending[0].at <= limit {
		h.modelFire()
		n++
	}
	h.now = max(h.now, limit)
	return n
}

// pick returns a live handle chosen by b, or nil when there is none.
func (h *orderHarness) pick(b byte) *orderHandle {
	if len(h.handles) == 0 {
		return nil
	}
	return h.handles[int(b)%len(h.handles)]
}

// step decodes and applies one op to both sides, then compares them.
func (h *orderHarness) step(t *testing.T) {
	t.Helper()
	op := h.next() % 9
	var got, want any
	switch op {
	case 0, 1: // AfterFunc, Schedule
		d, act := h.delay(h.next()), h.next()
		id := h.nextID
		h.nextID++
		h.used = append(h.used, h.now+d)
		p := orderPending{at: h.now + d, id: id, act: act}
		if op == 0 {
			p.h = &orderHandle{t: h.c.AfterFunc(time.Duration(d), h.fn(id, act)), id: id, act: act}
			h.handles = append(h.handles, p.h)
		} else {
			h.c.Schedule(time.Duration(d), h.fn(id, act))
		}
		h.modelArm(p)
	case 2: // Stop
		th := h.pick(h.next())
		if th == nil {
			return
		}
		got, want = th.t.Stop(), th.state == statePending
		if th.state == statePending {
			h.modelRemove(th.id)
			th.state = stateStopped
		}
	case 3: // Release
		th := h.pick(h.next())
		if th == nil {
			return
		}
		Release(th.t)
		if th.state == statePending {
			h.modelRemove(th.id)
		}
		h.handles = slices.DeleteFunc(h.handles, func(x *orderHandle) bool { return x == th })
	case 4: // Rearm
		th, d := h.pick(h.next()), h.delay(h.next())
		if th == nil {
			return
		}
		got, want = h.c.Rearm(th.t, time.Duration(d)), th.state != stateStopped
		if th.state != stateStopped {
			if th.state == statePending {
				h.modelRemove(th.id)
			}
			th.state = statePending
			h.used = append(h.used, h.now+d)
			h.modelArm(orderPending{at: h.now + d, id: th.id, act: th.act, h: th})
		}
	case 5: // Step
		got, want = h.c.Step(), len(h.pending) > 0
		if len(h.pending) > 0 {
			h.modelFire()
		}
	case 6: // Advance
		d := int64(h.next()%16) * int64(time.Millisecond)
		got = h.c.Advance(time.Duration(d))
		want = h.modelAdvanceTo(h.now + d)
	case 7: // AdvanceTo, up to 3 ms into the past
		at := h.now + int64(h.next()%16)*int64(time.Millisecond) - 3*int64(time.Millisecond)
		got = h.c.AdvanceTo(testEpoch.Add(time.Duration(at)))
		want = h.modelAdvanceTo(at)
	case 8: // Drain; children never spawn, so no limit (0) terminates
		limit := int(h.next() % 6)
		got = h.c.Drain(limit)
		n := 0
		for len(h.pending) > 0 && (limit == 0 || n < limit) {
			h.modelFire()
			n++
		}
		want = n
	}
	if got != want {
		t.Fatalf("op %d returned %v, model says %v", op, got, want)
	}
	if !slices.Equal(h.got, h.want) {
		t.Fatalf("after op %d fired (id, ns) %v, model says %v", op, h.got, h.want)
	}
	if n := h.c.Len(); n != len(h.pending) {
		t.Fatalf("after op %d Len() = %d, model has %d pending", op, n, len(h.pending))
	}
	if at := h.sinceEpoch(); at != h.now {
		t.Fatalf("after op %d Now() is %v after epoch, model says %v", op, time.Duration(at), time.Duration(h.now))
	}
}
