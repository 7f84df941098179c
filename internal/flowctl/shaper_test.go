package flowctl

import (
	"testing"
	"time"
)

// manualClock is a hand-cranked time source for shaper tests.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// level returns the bucket level (possibly negative) after refill.
func (s *Shaper) level() int64 {
	s.refill()
	return s.tokens
}
func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func newTestShaper(c *manualClock, p ShaperParams) *Shaper { return NewShaper(c.now, p) }

func TestShaperStartsFull(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 1000})
	if got := s.level(); got != 250 {
		t.Fatalf("fresh bucket = %d tokens, want 250", got)
	}
	if s.UnderPressure() {
		t.Fatal("fresh bucket reports pressure")
	}
}

func TestShaperRefillRate(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 4000}) // a 1000-token bucket
	s.TakeReserved(1000)                            // drain to zero
	if got := s.level(); got != 0 {
		t.Fatalf("after drain = %d, want 0", got)
	}
	c.advance(100 * time.Millisecond)
	if got := s.level(); got != 400 {
		t.Fatalf("after 100ms at 4000/s = %d tokens, want 400", got)
	}
	c.advance(10 * time.Second) // idle far past full: caps at burst
	if got := s.level(); got != 1000 {
		t.Fatalf("after long idle = %d tokens, want burst 1000", got)
	}
}

// TestShaperRemainderCarry pins the sub-token carry: at 50 tokens/s a 10ms
// step credits half a token, 0 naively, but the cursor arithmetic must make
// 200ms yield exactly 10 tokens regardless of step size.
func TestShaperRemainderCarry(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 50}) // a 12-token bucket
	s.TakeReserved(12)
	for i := 0; i < 20; i++ {
		c.advance(10 * time.Millisecond)
		s.level() // force refill at each step
	}
	if got := s.level(); got != 10 {
		t.Fatalf("50 tokens/s for 200ms in 10ms steps = %d tokens, want 10", got)
	}
}

func TestShaperReservedOverdraft(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 2000}) // a 500-token bucket
	for i := 0; i < 10; i++ {
		s.TakeReserved(1000) // reserved never blocks
	}
	if got := s.level(); got != -500 {
		t.Fatalf("overdraft = %d, want floor at -burst (-500)", got)
	}
	if s.TakeBestEffort(1) {
		t.Fatal("best effort proceeded while bucket in debt")
	}
	// Debt is bounded at one burst, so a quarter second of refill plus the
	// time to get positive again bounds the best-effort lockout.
	c.advance(251 * time.Millisecond)
	if !s.TakeBestEffort(1) {
		t.Fatalf("best effort still blocked after refill; tokens=%d", s.level())
	}
}

func TestShaperBestEffortYields(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 1600}) // a 400-token bucket
	if !s.TakeBestEffort(400) {
		t.Fatal("best effort blocked on a full bucket")
	}
	if s.TakeBestEffort(1) {
		t.Fatal("best effort proceeded on an empty bucket")
	}
	if !s.UnderPressure() {
		t.Fatal("empty bucket does not report pressure")
	}
	c.advance(75 * time.Millisecond) // 120 tokens: above burst/4 = 100
	if s.UnderPressure() {
		t.Fatalf("pressure still reported at %d/%d tokens", s.level(), s.burst)
	}
}

func TestShaperDefaultBurst(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 1000})
	if got := s.burst; got != 250 {
		t.Fatalf("burst = %d, want rate/4 = 250", got)
	}
	if got := newTestShaper(c, ShaperParams{Rate: 3}).burst; got != 1 {
		t.Fatalf("burst at 3 tokens/s = %d, want the one-token floor", got)
	}
}

func TestShaperParamsValidate(t *testing.T) {
	if err := (ShaperParams{Rate: 0}).Validate(); err == nil {
		t.Fatal("zero rate validated")
	}
	if err := (ShaperParams{Rate: -5}).Validate(); err == nil {
		t.Fatal("negative rate validated")
	}
	if err := (ShaperParams{Rate: 1 << 40}).Validate(); err == nil {
		t.Fatal("huge rate validated")
	}
	if err := (ShaperParams{Rate: 1000}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsShaper pins the shaper hot path at zero allocations: it sits on
// the per-frame egress path, which is pinned allocation-free end to end.
func TestAllocsShaper(t *testing.T) {
	c := newManualClock()
	s := newTestShaper(c, ShaperParams{Rate: 1_000_000})
	allocs := testing.AllocsPerRun(1000, func() {
		c.advance(time.Millisecond)
		s.TakeReserved(1400)
		s.TakeBestEffort(1400)
		s.UnderPressure()
	})
	if allocs != 0 {
		t.Fatalf("shaper hot path = %v allocs/op, want 0", allocs)
	}
}
