package server_test

import (
	"testing"
	"time"

	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
)

// packetWindow returns the most bytes any run of n consecutive packets of
// the table occupies, without materializing any of them.
func packetWindow(tab *mpeg.PacketTable, frames, n int) int {
	n = min(n, frames)
	sum := 0
	for i := 0; i < n; i++ {
		sum += tab.WireSize(i) + 1
	}
	most := sum
	for i := n; i < frames; i++ {
		sum += tab.WireSize(i) - tab.WireSize(i-n)
		most = max(most, sum)
	}
	return most
}

// slackFrames is two chunks of frames: a run of sent frames can straddle a
// chunk boundary at either end.
const slackFrames = 64

// TestStreamingMaterializesWhatItSends: ten seconds into a 90-second title
// the packet table holds the frames that were sent, rounded out to chunks —
// not the movie.
func TestStreamingMaterializesWhatItSends(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.movie = mpeg.Generate("casablanca", mpeg.StreamConfig{Duration: 90 * time.Second, Seed: 1})
	s := r.startServer("s1")
	r.run(time.Second)
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)

	sent := int(s.Stats().FramesSent)
	if sent < 250 {
		t.Fatalf("only %d frames sent in 10 s", sent)
	}
	tab := r.movie.Packets(byte(transport.ChannelVideo))
	got := tab.Materialized()
	if limit := packetWindow(tab, r.movie.TotalFrames(), sent+slackFrames); got > limit {
		t.Errorf("materialized %d bytes for %d frames sent, want at most %d (frames sent + 2 chunks)", got, sent, limit)
	}
	if got == 0 || got > tab.Bytes()/4 {
		t.Errorf("materialized %d of the table's %d bytes after 10 s of 90", got, tab.Bytes())
	}
}

// TestTakeoverOnFetchedCopyStartsAtItsOffset: a server that comes up empty,
// fetches the title and takes the viewer over twenty seconds in builds
// packets from the takeover offset on, never the part already watched.
func TestTakeoverOnFetchedCopyStartsAtItsOffset(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	c := r.startClient("c1", "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(20 * time.Second)

	cat := store.NewCatalog()
	s2 := r.startFetchingInto(t, "s2", cat, "casablanca")
	r.run(8 * time.Second)
	if got := r.servingServerOf("c1"); got != "s2" {
		t.Fatalf("serving = %q, want the freshly-replicated s2", got)
	}

	fetched, err := cat.Get("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	if fetched == r.movie {
		t.Fatal("s2 serves the rig's Movie, not a fetched copy")
	}
	sent := int(s2.Stats().FramesSent)
	if sent == 0 || sent > 300 {
		t.Fatalf("s2 sent %d frames in under 8 s", sent)
	}
	tab := fetched.Packets(byte(transport.ChannelVideo))
	// The viewer was ≈600 frames in at the takeover; had the fetched copy
	// built from frame 0, it would hold those too.
	if got, limit := tab.Materialized(), packetWindow(tab, fetched.TotalFrames(), sent+slackFrames); got == 0 || got > limit {
		t.Errorf("fetched copy materialized %d bytes for %d frames sent, want 1..%d (frames sent + 2 chunks)", got, sent, limit)
	}
}
