package flowctl

import (
	"fmt"
	"time"
)

// ShaperParams configures a token-bucket egress shaper. The bucket is a
// quarter second of Rate deep (at least one token): that is how many tokens
// may accumulate while the egress is idle, and therefore how large a
// back-to-back burst can be.
type ShaperParams struct {
	// Rate is the sustained egress budget in tokens (bytes) per second.
	Rate int64
}

// Validate reports whether the parameters are usable.
func (p ShaperParams) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("flowctl: shaper rate %d must be positive", p.Rate)
	}
	const maxRate = 1 << 30
	if p.Rate > maxRate {
		return fmt.Errorf("flowctl: shaper rate above %d not supported", maxRate)
	}
	return nil
}

// Shaper is a token-bucket egress shaper with two service classes. Reserved
// traffic is never blocked — its sessions were admitted against the budget,
// so the shaper's job is to account for them first; the bucket may run into
// debt (floored at one burst) and best-effort traffic is what actually
// yields: TakeBestEffort fails while the bucket is empty or in debt, and
// UnderPressure signals the degrade ladder before refusals become necessary.
//
// Time comes from an injected now func (the server passes clock.Virtual's
// Now), so shaping is exactly as deterministic as the simulation driving it.
// Refill is lazy integer arithmetic on call — no background task, no floats,
// no allocation — and the clock cursor advances only by the time the
// credited tokens actually took to accrue, so sub-token remainders carry
// over instead of being lost to rounding.
//
// A Shaper is not safe for concurrent use; the server calls it under its
// session mutex.
type Shaper struct {
	now    func() time.Time
	rate   int64
	burst  int64
	tokens int64
	last   time.Time // refill cursor: credit has been granted up to here
}

// NewShaper returns a full bucket. It panics on invalid parameters, same as
// NewRateController — shaper configs are static and a bad one is a bug.
func NewShaper(now func() time.Time, p ShaperParams) *Shaper {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	burst := max(p.Rate/4, 1)
	return &Shaper{now: now, rate: p.Rate, burst: burst, tokens: burst, last: now()}
}

// refill credits tokens for the time elapsed since the cursor.
func (s *Shaper) refill() {
	now := s.now()
	dt := now.Sub(s.last)
	if dt <= 0 {
		return
	}
	// If the elapsed time is enough to fill the bucket from its current
	// level, short-circuit: this both caps the arithmetic below (no
	// overflow however long the idle gap) and discards idle time beyond
	// full, which is the token-bucket contract.
	fill := (s.burst-s.tokens)*int64(time.Second)/s.rate + 1
	if int64(dt) >= fill {
		s.tokens = s.burst
		s.last = now
		return
	}
	add := s.rate * int64(dt) / int64(time.Second)
	if add <= 0 {
		return
	}
	s.tokens += add
	if s.tokens >= s.burst {
		s.tokens = s.burst
		s.last = now
		return
	}
	s.last = s.last.Add(time.Duration(add * int64(time.Second) / s.rate))
}

// TakeReserved charges n tokens for a reserved-class send. It always
// succeeds: reserved sessions were admitted against the budget and must not
// jitter. Overdraft is floored at one burst of debt, which bounds how long
// best-effort traffic can stay locked out after a reserved spike.
func (s *Shaper) TakeReserved(n int) {
	s.refill()
	s.tokens -= int64(n)
	if s.tokens < -s.burst {
		s.tokens = -s.burst
	}
}

// TakeBestEffort charges n tokens for a best-effort send if the bucket has
// any credit, and reports whether the send may proceed. A frame may drive
// the bucket below zero (frames are not split), in which case subsequent
// best-effort sends wait for the refill.
func (s *Shaper) TakeBestEffort(n int) bool {
	s.refill()
	if s.tokens <= 0 {
		return false
	}
	s.tokens -= int64(n)
	if s.tokens < -s.burst {
		s.tokens = -s.burst
	}
	return true
}

// UnderPressure reports whether the bucket has drained below a quarter of
// its depth — the early-warning signal that drives best-effort quality
// shedding before any frame has to be withheld outright.
func (s *Shaper) UnderPressure() bool {
	s.refill()
	return s.tokens < s.burst/4
}
