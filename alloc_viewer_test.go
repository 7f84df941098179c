package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
)

// TestAllocsPerLeasedViewer pins what one leased viewer costs over its whole
// life, construction included: client.New, Open, two seconds of frames,
// Close. The warm-cycle pins beside it reuse one client and so never see the
// constructor; the scale table builds 15,000 viewers, and this cost is its
// whole allocation count. Nothing here is observed (nil registries), so a
// viewer must pay for no instruments, no formatted trace notes, and — being
// a member of no group — no gcs ticker and no failure detector.
func TestAllocsPerLeasedViewer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector, once per viewer")
	}
	const viewers = 400
	clk, net, srvs := leaseServers(t, "server-1", "server-2")
	for _, srv := range srvs {
		defer srv.Stop()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	crowd := make([]*client.Client, viewers)
	for i := range crowd {
		c, err := leasedViewer(clk, net, fmt.Sprintf("viewer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		crowd[i] = c
	}
	clk.Advance(2 * time.Second)
	for i, c := range crowd {
		if c.State() != client.StateWatching || c.Counters().Displayed == 0 {
			t.Fatalf("viewer-%d: state %v, %d frames displayed", i, c.State(), c.Counters().Displayed)
		}
		c.Close()
	}
	runtime.ReadMemStats(&after)

	// Measured 34.0–34.1 per viewer, alone and in the full package run, at
	// GOMAXPROCS 1–8 (36.1 while netsim kept each sender's link horizons in
	// slices of its own; 36.2 while leased sessions paced on shared stripes;
	// 38.3 while a leased OpenReply named a session group,
	// which the server built and the client's decoder kept; 54.3 while every
	// beat, timer and netsim record bound a method value to hand to the clock
	// and each channel handler was boxed; 56.3 while gcs decoded into
	// free-listed envelopes; 69.4; 73.4–74.5 while the display, starvation, keeper and
	// session-decay beats were each a heap Periodic; 87.3 while the Open, the
	// OpenReply and every renew were copied into pooled records and bounced
	// through a zero-delay timer; 118.3 while every viewer also held a gcs
	// ticker and detector, the instruments a nil registry handed out, and a
	// Sprintf per discarded emergency note); the ceiling is ≈ 15 % over.
	const ceiling = 42
	perViewer := float64(after.Mallocs-before.Mallocs) / viewers
	if perViewer > ceiling {
		t.Fatalf("a leased viewer's life = %.1f allocs, ceiling %d", perViewer, ceiling)
	}
	t.Logf("a leased viewer's life = %.1f allocs (ceiling %d)", perViewer, ceiling)
}
