package clock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// bareClock decorates a Clock without forwarding its optional capabilities,
// the way a tracing wrapper might: Rearm must fall back to one AfterFunc per
// arm through it, so the decorator sees (and can wrap) every callback.
type bareClock struct {
	Clock
	armed int
}

func (b *bareClock) AfterFunc(d time.Duration, f func()) Timer {
	b.armed++
	return b.Clock.AfterFunc(d, f)
}

func TestRearmVirtual(t *testing.T) {
	c := NewVirtual(testEpoch)
	n := 0
	fn := Func(func() { n++ })

	tm := Rearm(c, nil, time.Millisecond, fn) // first use: plain AfterFunc
	c.Advance(time.Millisecond)
	if n != 1 {
		t.Fatalf("first arm fired %d times, want 1", n)
	}
	if again := Rearm(c, tm, time.Millisecond, fn); again != tm {
		t.Fatal("re-arming a fired Virtual timer issued a new record")
	}
	c.Advance(time.Millisecond)
	if n != 2 {
		t.Fatalf("re-armed timer: %d fires, want 2", n)
	}

	// Pending: the deadline moves, the old one never fires.
	tm = Rearm(c, tm, time.Millisecond, fn)
	tm = Rearm(c, tm, 10*time.Millisecond, fn)
	c.Advance(5 * time.Millisecond)
	if n != 2 {
		t.Fatalf("moved deadline fired early: %d fires", n)
	}
	c.Advance(5 * time.Millisecond)
	if n != 3 {
		t.Fatalf("moved deadline: %d fires, want 3", n)
	}

	// Stopped: not re-armable in place (Stop cleared fn), so the helper
	// falls back — and still arms.
	tm = Rearm(c, tm, time.Millisecond, fn)
	tm.Stop()
	if c.Rearm(tm, time.Millisecond) {
		t.Fatal("Virtual.Rearm accepted a stopped record")
	}
	tm = Rearm(c, tm, time.Millisecond, fn)
	c.Advance(time.Millisecond)
	if n != 4 {
		t.Fatalf("stopped-then-re-armed timer: %d fires, want 4", n)
	}

	// A timer from another clock is refused and left alone.
	other := NewVirtual(testEpoch)
	foreign := other.AfterFunc(time.Millisecond, fn)
	if c.Rearm(foreign, time.Millisecond) {
		t.Fatal("Virtual.Rearm accepted a foreign clock's timer")
	}
	if pending(other) != 1 {
		t.Fatal("refused Rearm disturbed the foreign timer")
	}
}

// TestRearmEqualsReleaseAfterFunc pins the replay claim: two clocks fed the
// same schedule, one re-arming in place and one through a decorator that
// forces Release + AfterFunc, fire every callback in the same order — the
// re-armed record takes the same sequence number either way.
func TestRearmEqualsReleaseAfterFunc(t *testing.T) {
	run := func(wrap func(*Virtual) Clock) []int {
		v := NewVirtual(testEpoch)
		c := wrap(v)
		var trace []int
		var timers [3]Timer
		var fns [3]Func
		for i := range timers {
			i := i
			fns[i] = func() {
				trace = append(trace, i)
				// Everyone re-arms onto shared instants, so order within an
				// instant is decided by sequence numbers alone.
				timers[i] = Rearm(c, timers[i], 2*time.Millisecond, fns[i])
				c.AfterFunc(2*time.Millisecond, func() { trace = append(trace, 10+i) })
			}
			timers[i] = Rearm(c, nil, time.Millisecond, fns[i])
		}
		v.Advance(20 * time.Millisecond)
		return trace
	}
	inPlace := run(func(v *Virtual) Clock { return v })
	twoStep := run(func(v *Virtual) Clock { return &bareClock{Clock: v} })
	if len(inPlace) == 0 || len(inPlace) != len(twoStep) {
		t.Fatalf("trace lengths %d vs %d", len(inPlace), len(twoStep))
	}
	for i := range inPlace {
		if inPlace[i] != twoStep[i] {
			t.Fatalf("traces diverge at %d: in place %v, two-step %v", i, inPlace, twoStep)
		}
	}
}

func TestRearmReal(t *testing.T) {
	var c Real
	fired := make(chan struct{}, 1)
	fn := Func(func() { fired <- struct{}{} })
	wait := func(what string) {
		t.Helper()
		select {
		case <-fired:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never fired", what)
		}
	}

	tm := Rearm(c, nil, time.Millisecond, fn)
	wait("first arm")
	if again := Rearm(c, tm, time.Millisecond, fn); again != tm {
		t.Fatal("re-arming a fired Real timer issued a new timer")
	}
	wait("re-armed timer")

	tm = Rearm(c, tm, time.Hour, fn)
	if !tm.Stop() {
		t.Fatal("re-armed timer was not pending")
	}
	tm = Rearm(c, tm, time.Millisecond, fn)
	wait("stopped-then-re-armed timer")

	v := NewVirtual(testEpoch)
	if c.Rearm(v.AfterFunc(time.Hour, fn), time.Millisecond) {
		t.Fatal("Real.Rearm accepted a Virtual timer")
	}
}

func TestRearmThroughBareDecorator(t *testing.T) {
	v := NewVirtual(testEpoch)
	c := &bareClock{Clock: v}
	n := 0
	fn := Func(func() { n++ })
	var tm Timer
	for i := 0; i < 5; i++ {
		tm = Rearm(c, tm, time.Millisecond, fn)
		v.Advance(time.Millisecond)
	}
	if n != 5 {
		t.Fatalf("%d fires through a bare decorator, want 5", n)
	}
	if c.armed != 5 {
		t.Fatalf("decorator saw %d AfterFunc calls, want one per arm (5)", c.armed)
	}
	if pending(v) != 0 {
		t.Fatalf("%d events left pending", pending(v))
	}

	// Periodic looks the capability up on the clock too.
	c.armed = 0
	p := Every(c, time.Millisecond, func() {})
	v.Advance(10 * time.Millisecond)
	p.Stop()
	if c.armed != 11 {
		t.Fatalf("decorator saw %d AfterFunc calls for 10 ticks, want 11", c.armed)
	}
}

func TestAllocsRearm(t *testing.T) {
	fn := Func(func() {})

	v := NewVirtual(testEpoch)
	vt := v.AfterFunc(time.Millisecond, fn)
	v.Advance(time.Millisecond)
	if allocs := testing.AllocsPerRun(1000, func() {
		vt = Rearm(v, vt, time.Millisecond, fn)
		v.Advance(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Rearm/fire cycle on Virtual = %v allocs/op, want 0", allocs)
	}

	var r Real
	rt := r.AfterFunc(time.Hour, fn)
	defer func() { rt.Stop() }()
	if allocs := testing.AllocsPerRun(1000, func() {
		rt = Rearm(r, rt, time.Hour, fn)
	}); allocs != 0 {
		t.Fatalf("Rearm on Real = %v allocs/op, want 0", allocs)
	}
}

// TestAllocsPeriodicOnRealClock pins the steady state the real-UDP daemons
// run in: a Periodic on the real clock owns one time.Timer for its whole
// life. Before Rearm every tick cost a fresh time.AfterFunc.
func TestAllocsPeriodicOnRealClock(t *testing.T) {
	const warm, ticks = 20, 300
	var n atomic.Int64
	warmed, done := make(chan struct{}), make(chan struct{})
	p := Every(Real{}, time.Millisecond, func() {
		switch n.Add(1) {
		case warm:
			close(warmed)
		case warm + ticks:
			close(done)
		}
	})
	defer p.Stop()
	<-warmed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	<-done
	runtime.ReadMemStats(&after)
	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	if perTick > 0.05 {
		t.Fatalf("Periodic on Real = %.3f allocs/tick over %d ticks, want ≤ 0.05", perTick, ticks)
	}
	t.Logf("Periodic on Real = %.3f allocs/tick", perTick)
}

// TestPeriodicStopRacingTickOnRealClock is TestPeriodicStopAtMostOneTickAfter
// for the clock whose callbacks really do run on their own goroutines: Stop
// lands while ticks fire. Once Stop has returned the timer must not be
// pending — a tick that lost the race must not have Reset it — and after one
// grace period (the at-most-one straggling fn) no tick runs. Run with -race
// this also proves tick's re-arm and Stop don't race on the timer.
func TestPeriodicStopRacingTickOnRealClock(t *testing.T) {
	const period = 100 * time.Microsecond
	const iters = 200
	var ticks [iters]atomic.Int64
	for iter := range ticks {
		n := &ticks[iter]
		third := make(chan struct{})
		p := Every(Real{}, period, func() {
			if n.Add(1) == 3 {
				close(third)
			}
		})
		<-third
		// Spread Stop across the tick cycle.
		time.Sleep(time.Duration(iter%8) * period / 8)
		p.Stop()
		p.mu.Lock()
		resurrected := p.timer.Stop()
		p.mu.Unlock()
		if resurrected {
			t.Fatalf("iteration %d: timer pending after Stop returned", iter)
		}
	}
	time.Sleep(20 * period) // grace: ticks already past their stopped check
	var atGrace [iters]int64
	for i := range ticks {
		atGrace[i] = ticks[i].Load()
	}
	time.Sleep(20 * period)
	for i := range ticks {
		if late := ticks[i].Load() - atGrace[i]; late != 0 {
			t.Fatalf("iteration %d: %d ticks after Stop + grace period", i, late)
		}
	}
}

// TestPeriodicSetPeriodOnRealClock is TestPeriodicSetPeriod's counterpart:
// the in-place re-arm reads the period afresh each tick.
func TestPeriodicSetPeriodOnRealClock(t *testing.T) {
	const long = 20 * time.Millisecond
	stamps := make(chan time.Time, 64)
	p := Every(Real{}, time.Millisecond, func() {
		select {
		case stamps <- time.Now():
		default:
		}
	})
	defer p.Stop()
	next := func() time.Time {
		t.Helper()
		select {
		case at := <-stamps:
			return at
		case <-time.After(2 * time.Second):
			t.Fatal("tick never came")
			return time.Time{}
		}
	}
	next()
	p.SetPeriod(long)
	set := time.Now()
	// The tick pending at SetPeriod keeps its old deadline, and one already
	// running may have re-armed with the old period; every re-arm after
	// those uses the new one. fn stamps the time after the re-arm, so allow
	// that much slack below the period.
	var at [2]time.Time
	for n := 0; n < 2; {
		if s := next(); s.Sub(set) > 2*long {
			at[n] = s
			n++
		}
	}
	if gap := at[1].Sub(at[0]); gap < long/2 {
		t.Fatalf("tick gap %v well after SetPeriod(%v): not picked up by the re-arm", gap, long)
	}
}
