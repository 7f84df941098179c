package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestTraceRingOverwrite(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := NewRegistry("n", func() time.Time { return now })
	for i := 0; i < defaultTraceDepth+10; i++ {
		r.Event("k", fmt.Sprintf("e%d", i))
	}
	snap := r.Snapshot()
	if len(snap.Events) != defaultTraceDepth {
		t.Fatalf("trace holds %d events, want %d", len(snap.Events), defaultTraceDepth)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
	// Oldest surviving event first.
	if snap.Events[0].Note != "e10" {
		t.Fatalf("first event = %q, want e10", snap.Events[0].Note)
	}
	last := snap.Events[len(snap.Events)-1]
	if last.Note != fmt.Sprintf("e%d", defaultTraceDepth+9) {
		t.Fatalf("last event = %q", last.Note)
	}
	if !last.At.Equal(now) {
		t.Fatalf("event timestamp = %v, want the injected clock's %v", last.At, now)
	}
}

// TestTraceGrowsToDepth pins the flight recorder's on-demand ring: a fresh
// registry holds no ring, the first event allocates a quarter of the depth,
// a partial fill snapshots in order, and past the depth the ring wraps with
// TestTraceRingOverwrite's oldest-first order and drop count.
func TestTraceGrowsToDepth(t *testing.T) {
	r := NewRegistry("n", func() time.Time { return time.Time{} })
	if r.trace.ring != nil {
		t.Fatalf("NewRegistry allocated a %d-slot ring before any event", cap(r.trace.ring))
	}
	if snap := r.Snapshot(); snap.Events != nil || snap.Dropped != 0 {
		t.Fatalf("empty trace snapshots %v events, %d dropped; want nil, 0", snap.Events, snap.Dropped)
	}

	logged := 0
	logTo := func(n int) {
		for ; logged < n; logged++ {
			r.Event("k", fmt.Sprintf("e%d", logged))
		}
	}
	// wantKept checks the snapshot holds events e<from>..e<logged-1> in order.
	wantKept := func(from int) {
		t.Helper()
		snap := r.Snapshot()
		if len(snap.Events) != logged-from || snap.Dropped != uint64(from) {
			t.Fatalf("after %d events: %d kept, %d dropped; want %d, %d", logged, len(snap.Events), snap.Dropped, logged-from, from)
		}
		for i, e := range snap.Events {
			if want := fmt.Sprintf("e%d", from+i); e.Note != want {
				t.Fatalf("after %d events: event %d is %q, want %q", logged, i, e.Note, want)
			}
		}
	}

	logTo(1)
	if got := cap(r.trace.ring); got != defaultTraceDepth/4 {
		t.Fatalf("first event allocated %d slots, want %d", got, defaultTraceDepth/4)
	}
	wantKept(0)
	logTo(defaultTraceDepth/2 + 3)
	wantKept(0)
	logTo(defaultTraceDepth + 10)
	if len(r.trace.ring) != defaultTraceDepth {
		t.Fatalf("ring holds %d events past its depth %d", len(r.trace.ring), defaultTraceDepth)
	}
	wantKept(10)
	logTo(3*defaultTraceDepth + 7)
	wantKept(2*defaultTraceDepth + 7)
}
