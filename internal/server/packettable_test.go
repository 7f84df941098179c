package server_test

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
)

// tapeSpan returns how many bytes of memory a table's packets cover, from
// packet 0's first byte to the furthest last byte, or -1 if a packet starts
// before packet 0: the size of the one tape they all alias.
func tapeSpan(m *mpeg.Movie, tab *mpeg.PacketTable) int {
	addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
	base := addr(tab.Packet(0))
	end := base
	for i := 0; i < m.TotalFrames(); i++ {
		p := tab.Packet(i)
		if addr(p) < base {
			return -1
		}
		end = max(end, addr(p)+uintptr(len(p)))
	}
	return int(end - base)
}

// maxTape is what a 90 s title's packet table may cost: its frames' headers
// plus a tail for the payloads that reach past the last one (≈73 KB for
// 90 s).
const maxTape = 80 << 10

// checkTable checks that the server built m's table at the Open — asking
// for it again finds it and allocates nothing — and that it is one tape of
// at most maxTape bytes.
func checkTable(t *testing.T, name string, m *mpeg.Movie) *mpeg.PacketTable {
	t.Helper()
	prefix := byte(transport.ChannelVideo)
	tab := m.Packets(prefix)
	if got := testing.AllocsPerRun(10, func() { m.Packets(prefix) }); got != 0 {
		t.Errorf("%s: Packets allocated %v times after streaming, want a table built once", name, got)
	}
	if got := tapeSpan(m, tab); got <= 0 || got > maxTape {
		t.Errorf("%s: packet table spans %d bytes, want 1..%d", name, got, maxTape)
	}
	return tab
}

// TestStreamingMaterializesWhatItSends: ten seconds into a 90-second title
// watched by two viewers, the server has built the title's packet table
// once, at ≈73 KB — less than one viewer's first 250 frames put on the wire.
func TestStreamingMaterializesWhatItSends(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.movie = mpeg.Generate("casablanca", mpeg.StreamConfig{Duration: 90 * time.Second, Seed: 1})
	s := r.startServer("s1")
	r.run(time.Second)
	for _, id := range []string{"c1", "c2"} {
		if err := r.startClient(id, "s1").Watch("casablanca"); err != nil {
			t.Fatal(err)
		}
	}
	r.run(10 * time.Second)

	if sent := s.Stats().FramesSent; sent < 500 {
		t.Fatalf("only %d frames sent to two viewers in 10 s", sent)
	}
	tab := checkTable(t, "s1", r.movie)
	sentBytes := 0
	for i := 0; i < 250; i++ {
		sentBytes += tab.WireSize(i) + 1
	}
	if got := tapeSpan(r.movie, tab); got >= sentBytes {
		t.Errorf("packet table spans %d bytes, want less than the %d of 250 frames sent", got, sentBytes)
	}
}

// TestTakeoverOnFetchedCopyStartsAtItsOffset: a server that comes up empty,
// fetches the title and takes the viewer over twenty seconds in streams
// from the takeover offset on. The fetched file is the title the process
// already holds, so the copy is the rig's Movie, table and all.
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
	if fetched != r.movie {
		t.Fatal("s2 built a second copy of a title the process holds")
	}
	// The viewer was ≈600 frames in at the takeover; had s2 started from
	// frame 0, it would have sent those too.
	if sent := s2.Stats().FramesSent; sent == 0 || sent > 300 {
		t.Fatalf("s2 sent %d frames in under 8 s", sent)
	}
	checkTable(t, "s2's fetched copy", fetched)
}
