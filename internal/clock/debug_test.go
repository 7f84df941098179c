//go:build clockdebug

package clock

import (
	"testing"
	"time"
)

// Run with: go test -tags clockdebug ./internal/clock

func TestDebugDoubleReleasePanics(t *testing.T) {
	c := NewVirtual(testEpoch)
	tm := c.AfterFunc(time.Millisecond, func() {})
	Release(tm)
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of the same record did not panic under clockdebug")
		}
	}()
	Release(tm)
}

// TestDebugDoubleReleaseThroughRearmPanics: handing Rearm a handle that was
// already released is the same caller bug, whether the clock refuses the
// in-place re-arm (Virtual) or never offers one (a bare decorator) — both
// fall back to Release, which must still trip the assertion.
func TestDebugDoubleReleaseThroughRearmPanics(t *testing.T) {
	for name, wrap := range map[string]func(*Virtual) Clock{
		"virtual":   func(v *Virtual) Clock { return v },
		"decorated": func(v *Virtual) Clock { return &bareClock{Clock: v} },
	} {
		t.Run(name, func(t *testing.T) {
			v := NewVirtual(testEpoch)
			tm := v.AfterFunc(time.Millisecond, func() {})
			Release(tm)
			defer func() {
				if recover() == nil {
					t.Fatal("Rearm of a released record did not panic under clockdebug")
				}
			}()
			Rearm(wrap(v), tm, time.Millisecond, func() {})
		})
	}
}

func TestDebugStopThenReleaseIsLegal(t *testing.T) {
	// Stop followed by one Release is the documented hand-back sequence and
	// must not trip the assertion.
	c := NewVirtual(testEpoch)
	tm := c.AfterFunc(time.Millisecond, func() {})
	tm.Stop()
	Release(tm)

	// Likewise a Release after natural firing.
	tm = c.AfterFunc(time.Millisecond, func() {})
	c.Advance(time.Millisecond)
	Release(tm)
}
