package clock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	c := NewVirtual(testEpoch)
	if got := c.Now(); !got.Equal(testEpoch) {
		t.Fatalf("Now() = %v, want %v", got, testEpoch)
	}
}

func TestVirtualAfterFuncFiresInOrder(t *testing.T) {
	c := NewVirtual(testEpoch)
	var got []int
	c.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	c.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })

	if n := c.Advance(100 * time.Millisecond); n != 3 {
		t.Fatalf("Advance executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestVirtualTieBreakIsSchedulingOrder(t *testing.T) {
	c := NewVirtual(testEpoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(5*time.Millisecond, func() { got = append(got, i) })
	}
	c.Advance(5 * time.Millisecond)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("equal-deadline events ran out of scheduling order: %v", got)
	}
}

func TestVirtualAdvanceSetsTimeExactly(t *testing.T) {
	c := NewVirtual(testEpoch)
	c.Advance(1700 * time.Millisecond)
	want := testEpoch.Add(1700 * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestVirtualNowDuringCallback(t *testing.T) {
	c := NewVirtual(testEpoch)
	var at time.Time
	c.AfterFunc(42*time.Millisecond, func() { at = c.Now() })
	c.Advance(time.Second)
	if want := testEpoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("Now() inside callback = %v, want %v", at, want)
	}
}

func TestVirtualStop(t *testing.T) {
	c := NewVirtual(testEpoch)
	fired := false
	tm := c.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualStopAfterFire(t *testing.T) {
	c := NewVirtual(testEpoch)
	tm := c.AfterFunc(10*time.Millisecond, func() {})
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after firing = true, want false")
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	c := NewVirtual(testEpoch)
	var times []time.Duration
	var chain func()
	chain = func() {
		times = append(times, c.Now().Sub(testEpoch))
		if len(times) < 5 {
			c.AfterFunc(10*time.Millisecond, chain)
		}
	}
	c.AfterFunc(10*time.Millisecond, chain)
	c.Advance(time.Second)
	if len(times) != 5 {
		t.Fatalf("chained callback ran %d times, want 5", len(times))
	}
	for i, d := range times {
		if want := time.Duration(i+1) * 10 * time.Millisecond; d != want {
			t.Fatalf("chain step %d at %v, want %v", i, d, want)
		}
	}
}

func TestVirtualNegativeDelayClampsToNow(t *testing.T) {
	c := NewVirtual(testEpoch)
	fired := false
	c.AfterFunc(-time.Hour, func() { fired = true })
	if fired {
		t.Fatal("callback ran synchronously inside AfterFunc")
	}
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay callback did not run at current time")
	}
}

func TestVirtualDrainLimit(t *testing.T) {
	c := NewVirtual(testEpoch)
	n := 0
	var rearm func()
	rearm = func() {
		n++
		c.AfterFunc(time.Millisecond, rearm)
	}
	c.AfterFunc(time.Millisecond, rearm)
	if got := c.Drain(100); got != 100 {
		t.Fatalf("Drain(100) = %d, want 100", got)
	}
	if n != 100 {
		t.Fatalf("self-rearming callback ran %d times, want 100", n)
	}
}

func TestVirtualAdvanceToPast(t *testing.T) {
	c := NewVirtual(testEpoch)
	c.Advance(time.Second)
	c.AdvanceTo(testEpoch) // must not move time backwards
	if got := c.Now(); got.Before(testEpoch.Add(time.Second)) {
		t.Fatalf("AdvanceTo moved time backwards to %v", got)
	}
}

func TestVirtualConcurrentScheduling(t *testing.T) {
	c := NewVirtual(testEpoch)
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.AfterFunc(time.Duration(j)*time.Millisecond, func() {
					mu.Lock()
					count++
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	c.Advance(time.Second)
	if count != 800 {
		t.Fatalf("executed %d events, want 800", count)
	}
}

// TestVirtualFiringOrderMatchesDeadlines is a property test: for any set of
// delays, callbacks observe non-decreasing clock readings and every event
// within the advanced window fires exactly once.
func TestVirtualFiringOrderMatchesDeadlines(t *testing.T) {
	prop := func(delays []uint16) bool {
		c := NewVirtual(testEpoch)
		fired := 0
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			c.AfterFunc(d, func() {
				at := c.Now().Sub(testEpoch)
				if at < last {
					ok = false
				}
				last = at
				fired++
			})
		}
		c.Advance(time.Duration(1<<16) * time.Microsecond)
		return ok && fired == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicTicksAtPeriod(t *testing.T) {
	c := NewVirtual(testEpoch)
	var ticks []time.Duration
	p := Every(c, 500*time.Millisecond, func() {
		ticks = append(ticks, c.Now().Sub(testEpoch))
	})
	defer p.Stop()
	c.Advance(2 * time.Second)
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks in 2s at 500ms, want 4", len(ticks))
	}
	for i, d := range ticks {
		if want := time.Duration(i+1) * 500 * time.Millisecond; d != want {
			t.Fatalf("tick %d at %v, want %v", i, d, want)
		}
	}
}

func TestPeriodicStop(t *testing.T) {
	c := NewVirtual(testEpoch)
	n := 0
	p := Every(c, 100*time.Millisecond, func() { n++ })
	c.Advance(250 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	c.Advance(time.Second)
	if n != 2 {
		t.Fatalf("ticks after stop: got %d total, want 2", n)
	}
}

func TestPeriodicSetPeriod(t *testing.T) {
	c := NewVirtual(testEpoch)
	var ticks []time.Duration
	var p *Periodic
	p = Every(c, 100*time.Millisecond, func() {
		ticks = append(ticks, c.Now().Sub(testEpoch))
		p.SetPeriod(300 * time.Millisecond)
	})
	defer p.Stop()
	c.Advance(time.Second)
	// The tick at 100ms was armed with the original period before fn ran,
	// so the new 300ms period takes effect from the 200ms tick onward.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, 800 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

// lateClock runs every callback lag after it is due, as a loaded machine's
// timers do. It is no rearmer, so every arm goes through AfterFunc.
type lateClock struct {
	v   *Virtual
	lag time.Duration
}

func (c lateClock) Now() time.Time { return c.v.Now() }
func (c lateClock) AfterFunc(d time.Duration, f func()) Timer {
	return c.v.AfterFunc(d+c.lag, f)
}

// TestPeriodicHoldsPhase: a tick is due one period after the previous one
// was due, so callbacks that run late do not push the beat back — lateness
// does not add up.
func TestPeriodicHoldsPhase(t *testing.T) {
	v := NewVirtual(testEpoch)
	var ticks []time.Duration
	p := Every(lateClock{v, 3 * time.Millisecond}, 100*time.Millisecond, func() {
		ticks = append(ticks, v.Now().Sub(testEpoch))
	})
	defer p.Stop()
	v.Advance(time.Second)
	if len(ticks) != 9 {
		t.Fatalf("%d ticks in 1s at 100ms, want 9: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1)*100*time.Millisecond + 3*time.Millisecond; at != want {
			t.Fatalf("tick %d ran at %v, want %v (3ms late, every time): %v", i, at, want, ticks)
		}
	}
}

// TestPeriodicSlipsWhenAPeriodLate: a tick that runs more than a period late
// is followed by one a period later, not by a burst that catches up.
func TestPeriodicSlipsWhenAPeriodLate(t *testing.T) {
	v := NewVirtual(testEpoch)
	var ticks []time.Duration
	p := Every(lateClock{v, 250 * time.Millisecond}, 100*time.Millisecond, func() {
		ticks = append(ticks, v.Now().Sub(testEpoch))
	})
	defer p.Stop()
	v.Advance(2 * time.Second)
	for i := 1; i < len(ticks); i++ {
		if gap := ticks[i] - ticks[i-1]; gap < 100*time.Millisecond {
			t.Fatalf("ticks %d and %d are %v apart, under one period: %v", i-1, i, gap, ticks)
		}
	}
	if len(ticks) < 4 {
		t.Fatalf("only %d ticks in 2s: %v", len(ticks), ticks)
	}
}

func TestPeriodicPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	Every(NewVirtual(testEpoch), 0, func() {})
}

func TestRealClockBasics(t *testing.T) {
	var c Real
	before := time.Now()
	if c.Now().Before(before) {
		t.Fatal("Real.Now() went backwards")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Real.AfterFunc callback never ran")
	}
}

func TestRealTimerStop(t *testing.T) {
	var c Real
	tm := c.AfterFunc(time.Hour, func() { t.Error("stopped real timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending real timer")
	}
}

// TestVirtualDeterminism replays a randomized scheduling workload twice and
// requires identical execution traces.
func TestVirtualDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		c := NewVirtual(testEpoch)
		var trace []int
		for i := 0; i < 200; i++ {
			i := i
			c.AfterFunc(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				trace = append(trace, i)
			})
		}
		c.Advance(time.Second)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkVirtualAfterFuncAndFire(b *testing.B) {
	c := NewVirtual(testEpoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AfterFunc(time.Millisecond, func() {})
		c.Step()
	}
}
