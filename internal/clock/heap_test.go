package clock

import (
	"sync"
	"testing"
	"time"
)

// Tests for the event heap: every pending event holds one entry that knows
// its slot, events sharing a deadline fire in arming order, and cancellation
// must preserve the firing order of the survivors.

// checkHeap fails unless every entry holds a pending event that records the
// slot it occupies, and sits no earlier than its parent.
func checkHeap(t *testing.T, c *Virtual) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.heap {
		if ev := c.heap[i].ev; ev.state != statePending || ev.index != i {
			t.Fatalf("entry %d holds an event in state %d recording slot %d", i, ev.state, ev.index)
		}
		if i > 0 && c.heap[i].before(&c.heap[(i-1)/4]) {
			t.Fatalf("entry %d precedes its parent", i)
		}
	}
}

func TestHeapSharedDeadlinesFireAll(t *testing.T) {
	c := NewVirtual(testEpoch)
	for i := 0; i < 100; i++ {
		c.AfterFunc(time.Second, func() {})
	}
	for i := 0; i < 50; i++ {
		c.AfterFunc(2*time.Second, func() {})
	}
	checkHeap(t, c)
	if got := pending(c); got != 150 {
		t.Fatalf("pending = %d, want 150", got)
	}
	if n := c.Advance(2 * time.Second); n != 150 {
		t.Fatalf("Advance executed %d events, want 150", n)
	}
	if got := pending(c); got != 0 {
		t.Fatalf("Len() after drain = %d, want 0", got)
	}
}

func TestWheelStopInsideBucketKeepsOrder(t *testing.T) {
	c := NewVirtual(testEpoch)
	var got []int
	timers := make([]Timer, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers[i] = c.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	// Cancel a middle, the first and the last event of the instant.
	timers[4].Stop()
	timers[0].Stop()
	timers[9].Stop()
	c.Advance(time.Second)
	want := []int{1, 2, 3, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestWheelSameInstantScheduleDuringDrain(t *testing.T) {
	// A callback scheduling at zero delay lands on the very instant being
	// run and must fire in the same pass, after everything already pending
	// at that instant.
	c := NewVirtual(testEpoch)
	var got []string
	c.AfterFunc(time.Second, func() {
		got = append(got, "a")
		c.AfterFunc(0, func() { got = append(got, "nested") })
	})
	c.AfterFunc(time.Second, func() { got = append(got, "b") })
	c.Advance(time.Second)
	want := []string{"a", "b", "nested"}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestHeapStopRemovesEntry(t *testing.T) {
	c := NewVirtual(testEpoch)
	var timers []Timer
	for i := 0; i < 40; i++ {
		timers = append(timers, c.AfterFunc(time.Duration(i%7)*time.Millisecond, func() {}))
	}
	// Stop the root, the last event armed and entries in between.
	for _, i := range []int{0, 39, 17, 5, 28} {
		timers[i].Stop()
		checkHeap(t, c)
	}
	if got := pending(c); got != 35 {
		t.Fatalf("pending = %d, want 35", got)
	}
	if n := c.Advance(time.Second); n != 35 {
		t.Fatalf("Advance executed %d events, want 35", n)
	}
}

// TestPeriodicStopAtMostOneTickAfter pins the Stop contract under -race: a
// tick whose timer already fired may still complete after Stop returns, but
// never more than one, and no tick starts afterwards. Run with -race this
// also proves Stop and tick don't race on Periodic state.
func TestPeriodicStopAtMostOneTickAfter(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		c := NewVirtual(testEpoch)
		var mu sync.Mutex
		ticks := 0
		p := Every(c, time.Millisecond, func() {
			mu.Lock()
			ticks++
			mu.Unlock()
		})

		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Advance(50 * time.Millisecond)
		}()
		// Let a few ticks happen, then stop concurrently with the advance.
		for {
			mu.Lock()
			n := ticks
			mu.Unlock()
			if n >= 3 {
				break
			}
		}
		p.Stop()
		mu.Lock()
		atStop := ticks
		mu.Unlock()
		<-done
		mu.Lock()
		final := ticks
		mu.Unlock()
		if final > atStop+1 {
			t.Fatalf("iteration %d: %d ticks completed after Stop returned, want ≤ 1", iter, final-atStop)
		}
	}
}

// TestPeriodicStopFromWithinTick pins the reentrant use every display loop
// relies on: fn calling Stop on its own task must not deadlock, and no tick
// runs afterwards.
func TestPeriodicStopFromWithinTick(t *testing.T) {
	c := NewVirtual(testEpoch)
	n := 0
	var p *Periodic
	p = Every(c, time.Millisecond, func() {
		n++
		if n == 3 {
			p.Stop()
		}
	})
	c.Advance(time.Second)
	if n != 3 {
		t.Fatalf("self-stopping periodic ran %d ticks, want 3", n)
	}
}

// pending is how many events c holds queued.
func pending(c *Virtual) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}
