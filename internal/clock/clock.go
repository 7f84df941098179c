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
// Beside the mandatory Clock interface a clock may offer two optional
// capabilities, each reached through a package-level helper that falls back
// to plain AfterFunc when the clock (or a decorator around it) does not
// provide it:
//
//   - Scheduler / Schedule: fire-and-forget callbacks that never need Stop,
//     so no Timer handle has to outlive the callback.
//   - rearmer / Rearm: re-arm a Timer in place for its original callback,
//     so a recurring timer (a Periodic, a pacing loop) owns one timer record
//     for its whole life on either clock.
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

// Scheduler is an optional fast path a Clock may provide for fire-and-forget
// callbacks that will never be cancelled. It carries the same semantics as
// AfterFunc minus the Timer handle, which lets an implementation recycle the
// timer record the moment the callback fires. Callers that might need Stop
// must use AfterFunc.
type Scheduler interface {
	Schedule(d time.Duration, f func())
}

// Schedule runs f once, d from now, on c. It uses the Scheduler fast path
// when c provides one and falls back to AfterFunc otherwise, so hot callers
// (per-packet delivery events) can stay allocation-free on a Virtual clock
// without type-asserting themselves.
func Schedule(c Clock, d time.Duration, f func()) {
	if s, ok := c.(Scheduler); ok {
		s.Schedule(d, f)
		return
	}
	c.AfterFunc(d, f)
}

// rearmer is an optional capability a Clock may provide for recurring timers:
// Rearm makes t — a Timer this clock's AfterFunc returned — fire its original
// callback once more, d from now, reusing the timer's record. It reports
// false, having changed nothing, when t cannot be reused (a timer from another
// clock, or one whose record was already given up), and the caller then
// issues a fresh AfterFunc.
//
// Rearm re-arms a stopped timer as readily as a fired one wherever the clock
// can, so a caller that also Stops t must make both calls under one lock and
// check its own stopped flag before re-arming; that is what keeps a stopped
// Periodic from being resurrected by a straggling tick.
type rearmer interface {
	Rearm(t Timer, d time.Duration) bool
}

// Rearm arms fn to run d from now on c, reusing t when it can: t is the
// caller's previous timer for the same fn (nil on first use). It re-arms t in
// place when c is a rearmer that accepts it, and otherwise releases t and
// issues a fresh AfterFunc — the same lifecycle in two steps. Either way the
// returned Timer replaces t, which the caller must not use again.
//
// The capability is looked up on c, not on t: a decorated clock that does not
// forward rearmer keeps one AfterFunc per arm, so whatever it wraps around
// each callback stays in force.
func Rearm(c Clock, t Timer, d time.Duration, fn func()) Timer {
	if t != nil {
		if r, ok := c.(rearmer); ok && r.Rearm(t, d) {
			return t
		}
		Release(t)
	}
	return c.AfterFunc(d, fn)
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
	_ rearmer   = Real{}
)

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// Schedule implements Scheduler.
func (Real) Schedule(d time.Duration, f func()) { time.AfterFunc(d, f) }

// Rearm implements rearmer with (*time.Timer).Reset, which for an AfterFunc
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
