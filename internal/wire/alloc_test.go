package wire

import (
	"slices"
	"testing"
)

// These tests pin the allocation behavior of the frame hot path: a server
// session encodes ~30 frames per client per second and a client decodes the
// same stream, so a single allocation per frame dominates the whole
// simulator's heap profile. The benchmarks in the repo root measure the
// aggregate; these pins catch the exact regression point.

func TestAllocsFrameEncode(t *testing.T) {
	payload := make([]byte, 1500)
	f := &Frame{Movie: "feature", Index: 0, Class: FrameI, Payload: payload}
	var enc Encoder
	enc.Encode(f) // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		f.Index++
		enc.Encode(f)
	})
	if allocs != 0 {
		t.Fatalf("warm Encoder.Encode(Frame) = %v allocs/op, want 0", allocs)
	}
}

func TestAllocsFrameAppendMessage(t *testing.T) {
	payload := make([]byte, 1500)
	f := &Frame{Movie: "feature", Index: 0, Class: FrameI, Payload: payload}
	buf := AppendMessage(nil, f) // size the buffer once
	allocs := testing.AllocsPerRun(1000, func() {
		f.Index++
		buf = AppendMessage(buf[:0], f)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendMessage(Frame) = %v allocs/op, want 0", allocs)
	}
}

func TestAllocsFrameDecode(t *testing.T) {
	pkt := Encode(&Frame{Movie: "feature", Index: 7, Class: FrameI, Payload: make([]byte, 1500)})
	var f Frame
	if err := DecodeFrameInto(&f, pkt); err != nil { // warm: interns the movie name
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := DecodeFrameInto(&f, pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeFrameInto = %v allocs/op, want 0", allocs)
	}
	if f.Movie != "feature" || f.Index != 7 || len(f.Payload) != 1500 {
		t.Fatalf("decode corrupted the frame: %+v", f)
	}
}

// reserveSink keeps reserveAllocs' buffer on the heap, as a frame's is.
var reserveSink []byte

// reserveAllocs is what reserving n bytes in an empty buffer costs, which is
// all framing into one may cost: one allocation, or two under the race
// detector, whose instrumentation turns off the compiler's in-place
// append of a make inside slices.Grow.
func reserveAllocs(n int) float64 {
	return testing.AllocsPerRun(10, func() { reserveSink = slices.Grow([]byte(nil), n) })
}

// TestAllocsEncodeOnce: for every kind, with and without its optional
// fields (the valid fuzz seeds), encodedSize is exactly the body written, so
// Encode — framing into an empty buffer — allocates only for the
// reservation, and never again for a field that overflows it.
func TestAllocsEncodeOnce(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		m, err := Decode(seed)
		if err != nil {
			continue // the hostile shapes
		}
		if got, want := len(Encode(m)), 1+m.encodedSize(); got != want {
			t.Errorf("%v %+v: encodedSize says a %d-byte frame, Encode writes %d", m.Kind(), m, want, got)
		}
		want := reserveAllocs(1 + m.encodedSize())
		if allocs := testing.AllocsPerRun(100, func() { _ = Encode(m) }); allocs != want {
			t.Errorf("%v %+v: Encode makes %v allocations, want %v", m.Kind(), m, allocs, want)
		}
	}
}

// TestAllocsClientStateTwoSenders: a server decodes its own syncs and its
// peers' into one scratch, so the sender alternates from one sync to the
// next. With the table warm, neither the sender's ID nor any record string
// is built again.
func TestAllocsClientStateTwoSenders(t *testing.T) {
	recs := []ClientRecord{
		{ClientID: "client-1", ClientAddr: "client-1", Offset: 7, Rate: 30, SentAt: 99},
		{ClientID: "client-2", ClientAddr: "client-2", Offset: 9, Rate: 28, SentAt: 98},
	}
	pkts := [][]byte{
		Encode(&ClientState{Server: "server-1", Clients: recs}),
		Encode(&ClientState{Server: "server-2", Clients: recs}),
	}
	var m ClientState
	tab := Intern{}
	for _, pkt := range pkts { // warm: the table learns every string
		if err := DecodeClientStateInto(&m, tab, pkt); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if err := DecodeClientStateInto(&m, tab, pkts[i%2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeClientStateInto from alternating senders = %v allocs/op, want 0", allocs)
	}
	if want := []string{"server-1", "server-2"}[i%2]; m.Server != want || len(m.Clients) != 2 || m.Clients[1].ClientID != "client-2" {
		t.Fatalf("decode corrupted the state: %+v", m)
	}
}
