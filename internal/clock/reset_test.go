package clock

import (
	"slices"
	"testing"
	"time"
)

// TestResetMatchesFresh: a clock Reset with records in every state — pending
// Schedule events, a fired, a stopped, a released and an armed AfterFunc, a
// running Periodic — arms, orders and fires a script exactly as a clock from
// NewVirtual does, down to the heap's (deadline, seq) keys; and every handle
// of the old run is inert.
func TestResetMatchesFresh(t *testing.T) {
	used := NewVirtual(time.Unix(0, 0))
	for i := 0; i < 600; i++ { // more than a slab, so Reset walks a chain
		used.Schedule(time.Duration(i%7)*time.Millisecond, func() {})
	}
	fired := used.AfterFunc(time.Millisecond, func() {})
	stopped := used.AfterFunc(time.Hour, func() {})
	stopped.Stop()
	Release(used.AfterFunc(time.Minute, func() {}))
	armed := used.AfterFunc(time.Hour, func() {})
	ticks := 0
	p := Every(used, 3*time.Millisecond, func() { ticks++ })
	used.Advance(5 * time.Millisecond)

	start := time.Unix(100, 0)
	if n := used.Reset(start); n != 2 {
		t.Errorf("Reset found %d armed timers, want 2 (one AfterFunc, one Periodic)", n)
	}
	if used.Len() != 0 || !used.Now().Equal(start) {
		t.Errorf("after Reset: Len %d, Now %v; want 0, %v", used.Len(), used.Now(), start)
	}
	for _, h := range []Timer{fired, stopped, armed} {
		if h.Stop() || used.Rearm(h, time.Millisecond) {
			t.Error("a handle from before Reset was stopped or re-armed")
		}
		Release(h)
	}
	p.Stop()

	type run struct {
		keys  [][2]int64
		fired []int
		ticks int
		now   time.Time
	}
	script := func(c *Virtual) (r run) {
		ticks = 0
		q := Every(c, 2*time.Millisecond, func() { ticks++ })
		for i := 0; i < 300; i++ {
			d := time.Duration(i%5) * time.Millisecond
			if i%3 == 0 {
				c.AfterFunc(d, func() { r.fired = append(r.fired, i) })
			} else {
				c.Schedule(d, func() { r.fired = append(r.fired, -i) })
			}
		}
		for _, e := range c.heap {
			r.keys = append(r.keys, [2]int64{e.nanos - start.UnixNano(), int64(e.seq)})
		}
		c.Advance(10 * time.Millisecond)
		q.Stop()
		r.ticks, r.now = ticks, c.Now()
		return r
	}
	got, want := script(used), script(NewVirtual(start))
	if !slices.Equal(got.keys, want.keys) {
		t.Error("the reset clock's heap keys differ from a fresh clock's")
	}
	if !slices.Equal(got.fired, want.fired) || got.ticks != want.ticks || !got.now.Equal(want.now) {
		t.Errorf("reset clock ran %d events (%d ticks) to %v, fresh %d (%d ticks) to %v, or in another order",
			len(got.fired), got.ticks, got.now, len(want.fired), want.ticks, want.now)
	}
}
