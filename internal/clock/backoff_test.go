package clock

import (
	"testing"
	"time"
)

func TestBackoffDoublesUpToCeiling(t *testing.T) {
	for n, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second} {
		if got := Backoff(time.Second, 5*time.Second, n); got != want {
			t.Errorf("Backoff(1s, 5s, %d) = %v, want %v", n, got, want)
		}
	}
	if got := Backoff(time.Minute, time.Second, 0); got != time.Second {
		t.Errorf("Backoff(1m, 1s, 0) = %v, want the ceiling", got)
	}
}
