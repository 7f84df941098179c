package congress

import (
	"slices"
	"testing"

	"repro/internal/transport"
)

// reserveSink keeps reserveAllocs' buffer on the heap, as a frame's is.
var reserveSink []byte

// reserveAllocs is what reserving n bytes in an empty buffer costs, which is
// all framing into one may cost (two allocations under the race detector,
// whose instrumentation turns off the in-place append of a make inside
// slices.Grow).
func reserveAllocs(n int) float64 {
	return testing.AllocsPerRun(10, func() { reserveSink = slices.Grow([]byte(nil), n) })
}

// TestFramesSizedBeforeWriting: each directory frame knows its encoded length,
// and framing one into an empty buffer allocates only for the reservation.
func TestFramesSizedBeforeWriting(t *testing.T) {
	group := "vod.servers"
	addrs := []transport.Addr{"server-1", "127.0.0.1:7002", ""}
	for _, tc := range []struct {
		name  string
		size  int
		frame func([]byte) []byte
	}{
		{"register", registerSize(group, addrs[1]), func(b []byte) []byte { return appendRegister(b, group, addrs[1], registrationTTL) }},
		{"resolve", resolveSize(group), func(b []byte) []byte { return appendResolve(b, group, 42) }},
		{"reply", replySize(group, addrs), func(b []byte) []byte { return appendReply(b, group, 42, addrs) }},
		{"empty reply", replySize(group, nil), func(b []byte) []byte { return appendReply(b, group, 42, nil) }},
	} {
		if got := len(tc.frame(nil)); got != tc.size {
			t.Errorf("%s: size says %d bytes, the frame has %d", tc.name, tc.size, got)
		}
		want := reserveAllocs(tc.size)
		if allocs := testing.AllocsPerRun(100, func() { _ = tc.frame(nil) }); allocs != want {
			t.Errorf("%s: framing into an empty buffer makes %v allocations, want %v", tc.name, allocs, want)
		}
	}
}
