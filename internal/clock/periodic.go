package clock

import (
	"sync"
	"time"
)

// Periodic invokes a function at a fixed period on any Clock. It is the
// building block for heartbeats, state-sync broadcasts and frame pacing.
// Unlike time.Ticker it is implemented with AfterFunc re-arming, so it works
// identically on Real and Virtual clocks.
//
// A Periodic is a value its owner embeds: the zero value is a stopped beat,
// and Start and Stop may alternate for the owner's whole life, allocating
// only at the first Start.
//
// The beat holds its phase: a tick is due one period after the previous one
// was due, not after it got to run, so timer latency does not add up and two
// tasks of one period keep the offset they were started with. On a Virtual
// clock a tick runs at the instant it is due and the two are the same. A tick
// that runs a whole period late does not fire a burst to catch up; the beat
// slips to one period from then.
//
// Each tick re-arms the timer that just fired through Rearm, so on a clock
// that is a rearmer a long-lived heartbeat owns one timer record forever. mu
// orders that re-arm against Stop and Start: a tick takes mu first, re-arms
// only while the beat runs, and re-arms the value's current timer, never a
// handle of its own. A Stop that finds the timer already fired (Timer.Stop
// reports false) counts the dispatched tick in stale, and a tick that finds
// stale non-zero drops itself. So a straggler racing a Stop and a Start
// leaves one chain and calls no fn, and Start may release the old record.
type Periodic struct {
	mu      sync.Mutex
	c       Clock
	fn      func()
	tickFn  func() // p.tick, bound once per value: a method value allocates per use
	period  time.Duration
	timer   Timer
	next    time.Time // when the pending tick is due
	running bool
	stale   int // dispatched ticks of a stopped chain, still to be dropped
}

// Every schedules fn to run every period on c, starting one period from
// now: a new Periodic, started. It panics if period is not positive.
func Every(c Clock, period time.Duration, fn func()) *Periodic {
	p := new(Periodic)
	p.Start(c, period, period, fn)
	return p
}

// Start arms a zero or stopped beat on c: fn runs first after first, then
// every period, from one AfterFunc as a new Periodic would. It panics on a
// running beat and on a non-positive duration (which would wedge a Virtual
// clock). A beat running when its Virtual clock was Reset must not be
// restarted: its Stop counts a stale tick that never comes.
func (p *Periodic) Start(c Clock, first, period time.Duration, fn func()) {
	if first <= 0 || period <= 0 {
		panic("clock: Periodic requires a positive period")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		panic("clock: Start on a running Periodic")
	}
	if p.tickFn == nil {
		p.tickFn = p.tick
	}
	if p.timer != nil {
		Release(p.timer)
	}
	p.c, p.fn, p.period, p.running = c, fn, period, true
	p.next = c.Now().Add(first)
	p.timer = c.AfterFunc(first, p.tickFn)
}

func (p *Periodic) tick() {
	p.mu.Lock()
	if p.stale > 0 || !p.running {
		p.stale = max(p.stale-1, 0)
		p.mu.Unlock()
		return
	}
	now := p.c.Now()
	p.next = p.next.Add(p.period)
	d := p.next.Sub(now)
	if d <= 0 { // a whole period late: slip the beat
		p.next, d = now.Add(p.period), p.period
	}
	p.timer = Rearm(p.c, p.timer, d, p.tickFn)
	fn := p.fn
	p.mu.Unlock()
	fn()
}

// SetPeriod changes the interval used when the task next re-arms. It does
// not reschedule the currently pending tick.
func (p *Periodic) SetPeriod(d time.Duration) {
	if d <= 0 {
		panic("clock: SetPeriod requires a positive period")
	}
	p.mu.Lock()
	p.period = d
	p.mu.Unlock()
}

// Stop cancels the task: the pending timer is stopped and no further tick
// is ever dispatched. A tick that had already taken its re-arm when Stop was
// called may still be about to invoke fn — tick never holds a lock across fn
// so that fn may itself call Stop (display loops stop their own task from
// inside the tick) — so on any clock at most one invocation of fn can still
// complete after Stop returns. Callers needing a hard cut must make fn check
// its own stop condition, as every fn in this repository does by re-checking
// state under its subsystem lock. Stopping a stopped beat does nothing.
func (p *Periodic) Stop() {
	p.mu.Lock()
	if p.running {
		p.running = false
		if !p.timer.Stop() {
			p.stale++
		}
	}
	p.mu.Unlock()
}
