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
// The objects allocated per Open are pinned too: a frame written into a
// fresh buffer one field at a time, or a decoder rebuilding a string the
// node already holds, costs objects rather than bytes.
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
	objsPerOpen := float64(after.Mallocs-before.Mallocs) / viewers
	// Bytes: 4.0 KB measured, session and viewer set-up included (6.9–7.4 KB
	// when the ceiling was set). Objects: 31.2 measured; 40.0–40.1 while
	// frames grew from empty buffers one field at a time and decoders built
	// strings the node already held (the server's copy of each ClientAddr
	// and of each session's client ID, the client's of its movie title).
	const ceiling, objCeiling = 12000, 39
	if perOpen > ceiling {
		t.Fatalf("a leased Open in a %d-viewer burst allocates %.0f bytes, ceiling %d", viewers, perOpen, ceiling)
	}
	if objsPerOpen > objCeiling {
		t.Fatalf("a leased Open in a %d-viewer burst allocates %.1f objects, ceiling %d", viewers, objsPerOpen, objCeiling)
	}
	t.Logf("a leased Open in a %d-viewer burst allocates %.0f bytes (ceiling %d) in %.1f objects (ceiling %d)",
		viewers, perOpen, ceiling, objsPerOpen, objCeiling)
}
