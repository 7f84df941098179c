package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Periodic invokes a function at a fixed period on any Clock. It is the
// building block for heartbeats, state-sync broadcasts and frame pacing.
// Unlike time.Ticker it is implemented with AfterFunc re-arming, so it works
// identically on Real and Virtual clocks.
//
// The beat holds its phase: a tick is due one period after the previous one
// was due, not after it got to run, so timer latency does not add up and two
// tasks of one period keep the offset they were started with. On a Virtual
// clock a tick runs at the instant it is due and the two are the same. A tick
// that runs a whole period late does not fire a burst to catch up; the beat
// slips to one period from then.
//
// Each tick re-arms the timer that just fired through Rearm, so on a clock
// that is a Rearmer a long-lived heartbeat owns one timer record forever. mu
// orders that re-arm against Stop: a tick re-arms only after seeing stopped
// false under mu, and Stop sets stopped before it takes mu to cancel, so
// whichever gets mu second sees the other's work and a stopped timer is never
// re-armed. Stop cancels the pending timer instead of releasing its record —
// a released record could be reissued to an unrelated caller while a
// straggling tick still holds the handle, and the re-arm would then hijack
// the new owner's event.
type Periodic struct {
	c       Clock
	period  atomic.Int64
	fn      func()
	tickFn  func() // p.tick, bound once: a method value allocates per use
	stopped atomic.Bool

	mu    sync.Mutex // guards timer and next: re-armed by tick, cancelled by Stop
	timer Timer
	next  time.Time // when the pending tick is due
}

// Every schedules fn to run every period on c, starting one period from
// now. It panics if period is not positive; a zero-period heartbeat would
// wedge a Virtual clock in an infinite event cascade.
func Every(c Clock, period time.Duration, fn func()) *Periodic {
	return EveryAfter(c, period, period, fn)
}

// EveryAfter is Every whose first run comes after first rather than after
// one period, for a task that takes up a beat already under way. Both
// durations must be positive.
func EveryAfter(c Clock, first, period time.Duration, fn func()) *Periodic {
	if first <= 0 || period <= 0 {
		panic("clock: Every requires a positive period")
	}
	p := &Periodic{c: c, fn: fn}
	p.period.Store(int64(period))
	p.tickFn = p.tick
	p.mu.Lock()
	p.next = c.Now().Add(first)
	p.timer = c.AfterFunc(first, p.tickFn)
	p.mu.Unlock()
	return p
}

func (p *Periodic) tick() {
	if p.stopped.Load() {
		return
	}
	p.mu.Lock()
	if !p.stopped.Load() {
		period := time.Duration(p.period.Load())
		now := p.c.Now()
		p.next = p.next.Add(period)
		d := p.next.Sub(now)
		if d <= 0 { // a whole period late: slip the beat
			p.next, d = now.Add(period), period
		}
		p.timer = Rearm(p.c, p.timer, d, p.tickFn)
	}
	p.mu.Unlock()
	p.fn()
}

// SetPeriod changes the interval used when the task next re-arms. It does
// not reschedule the currently pending tick.
func (p *Periodic) SetPeriod(d time.Duration) {
	if d <= 0 {
		panic("clock: SetPeriod requires a positive period")
	}
	p.period.Store(int64(d))
}

// Stop cancels the task: the pending timer is stopped and no further tick
// is ever dispatched. A tick whose timer has already fired may still be
// between re-arming and invoking fn when Stop is called — tick never holds
// a lock across fn so that fn may itself call Stop (display loops stop
// their own task from inside the tick) — so on any clock at most one
// invocation of fn can still complete after Stop returns. Callers needing a
// hard cut must make fn check its own stop condition, as every fn in this
// repository does by re-checking state under its subsystem lock.
func (p *Periodic) Stop() {
	if p.stopped.Swap(true) {
		return
	}
	p.mu.Lock()
	if p.timer != nil {
		// Cancel but keep the record: see the type comment.
		p.timer.Stop()
	}
	p.mu.Unlock()
}
