package fetch

import (
	"slices"
	"testing"
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

// TestFramesSizedBeforeWriting: each bulk-channel frame knows its encoded
// length, and framing one into an empty buffer allocates only for the
// reservation.
func TestFramesSizedBeforeWriting(t *testing.T) {
	movie := "casablanca"
	data := make([]byte, chunkSize)
	for _, tc := range []struct {
		name  string
		size  int
		frame func([]byte) []byte
	}{
		{"chunk request", chunkReqSize(movie), func(b []byte) []byte { return appendChunkReq(b, 7, movie, 3) }},
		{"chunk response", chunkRespSize(movie, data), func(b []byte) []byte { return appendChunkResp(b, 7, movie, 3, 9, data) }},
		{"last chunk", chunkRespSize(movie, data[:5]), func(b []byte) []byte { return appendChunkResp(b, 7, movie, 8, 9, data[:5]) }},
		{"not found", headSize(movie), func(b []byte) []byte { return appendNotFound(b, 7, movie) }},
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
