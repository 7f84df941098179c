package chaos

import (
	"crypto/sha256"
	"testing"

	"repro/internal/mpeg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// packetsDigest hashes every packet of the movie's video-channel table.
func packetsDigest(m *mpeg.Movie) [sha256.Size]byte {
	tab := m.Packets(byte(transport.ChannelVideo))
	h := sha256.New()
	for i := 0; i < m.TotalFrames(); i++ {
		h.Write(tab.Packet(i))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestStreamingNeverWritesThePacketTape: packets overlap on their title's
// tape — a packet's payload is the headers of the frames after it — so one
// stray write through a sent, delivered or buffered frame would corrupt a
// neighbour's header. Every packet of the feature must hash the same after
// the paper's LAN crash scenario and a chaos schedule streamed it.
func TestStreamingNeverWritesThePacketTape(t *testing.T) {
	movie := feature()
	want := packetsDigest(movie)

	sc := sim.LANScenario(1)
	sc.Feature = movie
	if res := sim.Run(sc); res.Final.Displayed == 0 {
		t.Fatal("the LAN scenario displayed nothing")
	}
	if packetsDigest(movie) != want {
		t.Fatal("the LAN crash scenario wrote through a packet of the shared table")
	}

	if rep, _ := execute(NewPlan(1), movie); rep.Displayed == 0 {
		t.Fatal("chaos seed 1 displayed nothing")
	}
	if packetsDigest(movie) != want {
		t.Fatal("chaos seed 1 wrote through a packet of the shared table")
	}
}
