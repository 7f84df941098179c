package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
)

// TestAllocBytesPerOpenInABurst pins what a flash crowd costs per arrival
// where a movie group has a peer to tell: two servers share the title and 400
// leased viewers open on the first within 400 ms. An Open announces its own
// record to the group, so the bytes allocated per Open — the gcs payload
// buffers on both servers above all — must not depend on how many sessions
// are already live. When every Open re-multicast the server's whole table
// the same burst measured 31–45 KB per Open (the 400th shipped 400 records).
func TestAllocBytesPerOpenInABurst(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector")
	}
	const viewers = 400
	clk, net, srvs := leaseServers(t, "server-1", "server-2")
	for _, srv := range srvs {
		defer srv.Stop()
	}
	clk.Advance(2 * time.Second) // the movie group forms

	crowd := make([]*client.Client, viewers)
	for i := range crowd {
		c, err := leasedViewer(clk, net, fmt.Sprintf("viewer-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		crowd[i] = c
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range crowd {
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	runtime.ReadMemStats(&after)

	if got := len(srvs[0].ActiveSessions()); got != viewers {
		t.Fatalf("server-1 serves %d of the %d viewers that opened on it", got, viewers)
	}
	perOpen := float64(after.TotalAlloc-before.TotalAlloc) / viewers
	const ceiling = 12000 // bytes; 6.9–7.4 KB measured, session and viewer set-up included
	if perOpen > ceiling {
		t.Fatalf("a leased Open in a %d-viewer burst allocates %.0f bytes, ceiling %d", viewers, perOpen, ceiling)
	}
	t.Logf("a leased Open in a %d-viewer burst allocates %.0f bytes (ceiling %d)", viewers, perOpen, ceiling)
}
