package clock

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestPeriodicStartFirstTick(t *testing.T) {
	c := NewVirtual(testEpoch)
	var ticks []time.Duration
	var p Periodic
	p.Start(c, 30*time.Millisecond, 100*time.Millisecond, func() {
		ticks = append(ticks, c.Now().Sub(testEpoch))
	})
	defer p.Stop()
	c.Advance(300 * time.Millisecond)
	want := []time.Duration{30 * time.Millisecond, 130 * time.Millisecond, 230 * time.Millisecond}
	if !slices.Equal(ticks, want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
}

// TestPeriodicRestartMatchesFresh: a beat stopped and started again fires at
// the instants a fresh Every armed at the same moment fires at, and in the
// same order against timers armed beside it at the same deadlines — down to
// the heap's (deadline, seq) keys — with its old record handed back.
func TestPeriodicRestartMatchesFresh(t *testing.T) {
	const period = 10 * time.Millisecond
	type stamp struct {
		at   time.Duration
		what string
	}
	run := func(restart bool) (trace []stamp, keys [][2]int64) {
		c := NewVirtual(testEpoch)
		note := func(what string) func() {
			return func() { trace = append(trace, stamp{c.Now().Sub(testEpoch), what}) }
		}
		old := Every(c, period, note("old"))
		c.Advance(25 * time.Millisecond)
		old.Stop()
		c.Advance(7 * time.Millisecond)
		trace = nil
		c.AfterFunc(period, note("before"))
		beat := old
		if restart {
			beat.Start(c, period, period, note("beat"))
		} else {
			beat = Every(c, period, note("beat"))
		}
		c.AfterFunc(period, note("after"))
		for _, e := range c.heap {
			keys = append(keys, [2]int64{e.nanos - testEpoch.UnixNano(), int64(e.seq)})
		}
		c.Advance(35 * time.Millisecond)
		beat.Stop()
		return trace, keys
	}
	restarted, rkeys := run(true)
	fresh, fkeys := run(false)
	if !slices.Equal(restarted, fresh) {
		t.Fatalf("restarted beat ran %v, a fresh one %v", restarted, fresh)
	}
	if !slices.Equal(rkeys, fkeys) {
		t.Fatalf("restarted beat armed %v, a fresh one %v", rkeys, fkeys)
	}
	var order []string
	for _, s := range fresh {
		order = append(order, s.what)
	}
	if want := []string{"before", "beat", "after", "beat", "beat"}; !slices.Equal(order, want) {
		t.Fatalf("trace %v, want the beat between its neighbours and then twice more", fresh)
	}
}

// inFlightClock is a Clock whose timers the test fires by hand. Dispatch
// takes a pending timer's callback out as if the clock had started running
// it, without running it: from then on that timer's Stop reports false, the
// way a Real timer's does while its callback is on its way to Periodic.mu.
type inFlightClock struct {
	now    time.Time
	timers []*inFlightTimer
}

type inFlightTimer struct {
	f                func()
	dispatched, dead bool
}

func (c *inFlightClock) Now() time.Time { return c.now }

func (c *inFlightClock) AfterFunc(_ time.Duration, f func()) Timer {
	t := &inFlightTimer{f: f}
	c.timers = append(c.timers, t)
	return t
}

func (t *inFlightTimer) Stop() bool {
	was := !t.dispatched && !t.dead
	t.dead = true
	return was
}

// pending counts the timers still armed: the beat's live chains.
func (c *inFlightClock) pending() int {
	n := 0
	for _, t := range c.timers {
		if !t.dispatched && !t.dead {
			n++
		}
	}
	return n
}

// dispatch fires the one pending timer and returns its callback unrun.
func (c *inFlightClock) dispatch(t *testing.T) func() {
	t.Helper()
	if n := c.pending(); n != 1 {
		t.Fatalf("%d timers pending, want one chain", n)
	}
	for _, tm := range c.timers {
		if !tm.dispatched && !tm.dead {
			tm.dispatched = true
			return tm.f
		}
	}
	return nil
}

// TestPeriodicRestartDropsStraggler: Stop lands while a tick is in flight,
// so Timer.Stop reports false; Start then arms a new chain. Whichever of the
// straggler and the new chain's first tick reaches the beat first, one chain
// is left armed and fn runs once for the two of them.
func TestPeriodicRestartDropsStraggler(t *testing.T) {
	for _, stragglerFirst := range []bool{true, false} {
		c := &inFlightClock{now: testEpoch}
		calls := 0
		var p Periodic
		p.Start(c, time.Millisecond, time.Millisecond, func() { calls++ })
		straggler := c.dispatch(t)
		p.Stop()
		if c.pending() != 0 {
			t.Fatal("a stopped beat left a timer armed")
		}
		p.Start(c, time.Millisecond, time.Millisecond, func() { calls++ })
		first := c.dispatch(t)
		if stragglerFirst {
			straggler()
			first()
		} else {
			first()
			straggler()
		}
		if calls != 1 {
			t.Fatalf("straggler first %v: fn ran %d times for one tick of the new chain, want 1", stragglerFirst, calls)
		}
		if n := c.pending(); n != 1 {
			t.Fatalf("straggler first %v: %d chains armed after the restart, want 1", stragglerFirst, n)
		}
		c.dispatch(t)()
		if calls != 2 || c.pending() != 1 {
			t.Fatalf("straggler first %v: after one more tick fn ran %d times and %d chains are armed, want 2 and 1", stragglerFirst, calls, c.pending())
		}
		p.Stop()
	}
}

// TestPeriodicStragglerAfterStopAgain: a straggler that is still on its way
// when the restarted beat is stopped once more runs no fn and arms nothing.
func TestPeriodicStragglerAfterStopAgain(t *testing.T) {
	c := &inFlightClock{now: testEpoch}
	calls := 0
	var p Periodic
	p.Start(c, time.Millisecond, time.Millisecond, func() { calls++ })
	straggler := c.dispatch(t)
	p.Stop()
	p.Start(c, time.Millisecond, time.Millisecond, func() { calls++ })
	second := c.dispatch(t)
	second() // takes the straggler's drop; the new chain waits for it
	p.Stop() // the straggler is still in flight: counted again
	straggler()
	if calls != 0 || c.pending() != 0 {
		t.Fatalf("fn ran %d times and %d chains are armed after the beat was stopped, want 0 and 0", calls, c.pending())
	}
}

// TestPeriodicStartOnRunningPanics pins the choice: Start on a running beat
// is a caller bug, not an implicit Stop.
func TestPeriodicStartOnRunningPanics(t *testing.T) {
	c := NewVirtual(testEpoch)
	p := Every(c, time.Millisecond, func() {})
	defer p.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Start on a running Periodic did not panic")
		}
	}()
	p.Start(c, time.Millisecond, time.Millisecond, func() {})
}

// TestPeriodicRestartOnRealClock restarts a fast beat on the real clock,
// stopping it at every phase of its cycle: each restart leaves one chain, so
// once stopped no tick runs after one grace period. Run with -race this also
// proves Start, Stop and a straggling tick share the value safely.
func TestPeriodicRestartOnRealClock(t *testing.T) {
	const period = 100 * time.Microsecond
	var ticks atomic.Int64
	var p Periodic
	fn := func() { ticks.Add(1) }
	for iter := range 200 {
		p.Start(Real{}, period, period, fn)
		time.Sleep(time.Duration(iter%8) * period / 4)
		p.Stop()
	}
	p.Start(Real{}, period, period, fn)
	before := ticks.Load()
	time.Sleep(100 * period)
	if ticks.Load() == before {
		t.Fatal("the restarted beat never ticked")
	}
	p.Stop()
	time.Sleep(20 * period) // grace: a tick already past its check
	atGrace := ticks.Load()
	time.Sleep(20 * period)
	if late := ticks.Load() - atGrace; late != 0 {
		t.Fatalf("%d ticks after Stop + grace period", late)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.timer.Stop() {
		t.Fatal("timer pending after Stop returned")
	}
}
