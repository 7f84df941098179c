// Package clock provides the time base every protocol component in this
// repository is written against. Components never call the time package
// directly; they take a Clock. Two implementations are provided:
//
//   - Real: thin wrapper over the standard time package, used by the
//     cmd/ binaries and the real-UDP example.
//   - Virtual: a deterministic discrete-event scheduler, used by the
//     simulator, the test suite and the benchmark harness. Its pending
//     events form one heap ordered by deadline, then by arming order. An
//     entire multi-node cluster advances in a single goroutine, so a
//     90-second evaluation scenario executes in milliseconds and is exactly
//     reproducible.
//
// Beside the mandatory Clock interface, Virtual and Real take a callback as a
// Runner: an event carries its receiver, and nothing binds a method value to
// hand to the clock. AfterRun, Schedule (fire-and-forget, no Timer handle),
// Rearm (re-arm a Timer in place, so a recurring timer owns one record for
// its whole life) and Periodic reach that capability, and fall back to plain
// AfterFunc on a clock, or a decorator, that does not provide it.
package clock

import "time"

// Clock is the interface protocol components schedule against.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time

	// AfterFunc schedules f to run once, d from now. f runs on the
	// clock's executor: for Real, on its own goroutine (as with
	// time.AfterFunc); for Virtual, inline when the simulation reaches
	// the deadline. A non-positive d schedules f to run as soon as
	// possible, never synchronously inside AfterFunc.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the callback. It reports whether the call prevented
	// the callback from running. Stopping an already-fired or
	// already-stopped timer returns false.
	Stop() bool
}

// Runner is a callback with its receiver: an owner of a timer or a beat
// implements Run, or converts itself to a named type that does, and passes
// itself.
type Runner interface{ Run() }

// Func adapts a plain func to Runner; a func value is one pointer, so the
// conversion allocates nothing.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Scheduler is an optional fast path a Clock may provide for fire-and-forget
// callbacks that will never be cancelled. It carries the same semantics as
// AfterFunc minus the Timer handle, which lets an implementation recycle the
// timer record the moment the callback fires. Callers that might need Stop
// must use AfterFunc.
type Scheduler interface {
	Schedule(d time.Duration, f func())
}

// runClock is the capability Virtual and Real provide: they arm a Runner as
// is, and Rearm makes t — a Timer this clock armed — fire its callback once
// more, d from now, reusing the timer's record. Rearm reports false, having
// changed nothing, when t cannot be reused (a timer from another clock, or
// one whose record was already given up), and the caller then arms afresh.
//
// Rearm re-arms a stopped timer as readily as a fired one wherever the clock
// can, so a caller that also Stops t must make both calls under one lock and
// check its own stopped flag before re-arming; that is what keeps a stopped
// Periodic from being resurrected by a straggling tick.
type runClock interface {
	afterRun(d time.Duration, r Runner) Timer
	scheduleRun(d time.Duration, r Runner)
	Rearm(t Timer, d time.Duration) bool
}

// funcOf returns r as the func a plain Clock takes: a Func as itself, any
// other Runner as its bound Run method.
func funcOf(r Runner) func() {
	if f, ok := r.(Func); ok {
		return f
	}
	return r.Run
}

// AfterRun is AfterFunc for a Runner. A clock without the Runner capability,
// such as a decorator, gets r's Run through AfterFunc and sees every callback.
func AfterRun(c Clock, d time.Duration, r Runner) Timer {
	if rc, ok := c.(runClock); ok {
		return rc.afterRun(d, r)
	}
	return c.AfterFunc(d, funcOf(r))
}

// Schedule runs r once, d from now, on c, with no Timer handle, so the clock
// may recycle the record as it fires. Without the Runner capability it takes
// the Scheduler fast path where there is one, else AfterFunc.
func Schedule(c Clock, d time.Duration, r Runner) {
	switch s := c.(type) {
	case runClock:
		s.scheduleRun(d, r)
	case Scheduler:
		s.Schedule(d, funcOf(r))
	default:
		c.AfterFunc(d, funcOf(r))
	}
}

// Rearm arms r to run d from now on c, reusing t when it can: t is the
// caller's previous timer for the same r (nil on first use). It re-arms t in
// place when c accepts it, and otherwise releases t and arms afresh — the
// same lifecycle in two steps. Either way the returned Timer replaces t,
// which the caller must not use again.
//
// The capability is looked up on c, not on t: a decorated clock that does not
// forward it keeps one AfterFunc per arm, so whatever it wraps around each
// callback stays in force.
func Rearm(c Clock, t Timer, d time.Duration, r Runner) Timer {
	if t != nil {
		if rc, ok := c.(runClock); ok && rc.Rearm(t, d) {
			return t
		}
		Release(t)
	}
	return AfterRun(c, d, r)
}

// Backoff is base doubled n times, capped at ceiling: the wait before retry n
// of a capped exponential backoff (n = 0 is the first retry). Jitter, where
// a caller wants it, is the caller's to add.
func Backoff(base, ceiling time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < ceiling; i++ {
		d *= 2
	}
	return min(d, ceiling)
}

// Real is a Clock backed by the standard time package.
// The zero value is ready to use.
type Real struct{}

var (
	_ Clock     = Real{}
	_ Scheduler = Real{}
	_ runClock  = Real{}
)

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// Schedule implements Scheduler.
func (Real) Schedule(d time.Duration, f func()) { time.AfterFunc(d, f) }

// The standard timer takes a func: a Runner that is not a Func has its Run
// method bound at each arm here, and Rearm reuses the timer and the func.
func (Real) afterRun(d time.Duration, r Runner) Timer {
	return realTimer{t: time.AfterFunc(d, funcOf(r))}
}

func (Real) scheduleRun(d time.Duration, r Runner) { time.AfterFunc(d, funcOf(r)) }

// Rearm implements runClock with (*time.Timer).Reset, which for an AfterFunc
// timer schedules its function to run again whether the timer had fired or
// been stopped.
func (Real) Rearm(t Timer, d time.Duration) bool {
	rt, ok := t.(realTimer)
	if !ok {
		return false
	}
	rt.t.Reset(d)
	return true
}

type realTimer struct{ t *time.Timer }

var _ Timer = realTimer{}

func (rt realTimer) Stop() bool { return rt.t.Stop() }
