package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, math.MaxUint64)
	b = appendI64(b, -12345678901234)
	b = appendBool(b, true)
	b = appendBool(b, false)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "movie group")

	r := NewReader(b)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.i64(); got != -12345678901234 {
		t.Fatalf("I64 = %d", got)
	}
	if !r.bool() || r.bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.String(); got != "movie group" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
		read func(*Reader)
	}{
		{"u16 short", []byte{1}, func(r *Reader) { r.U16() }},
		{"u32 short", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"u64 short", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.U64() }},
		{"bytes length lies", []byte{0, 0, 0, 9, 1, 2}, func(r *Reader) { r.Bytes() }},
		{"string length lies", []byte{0, 9, 'a'}, func(r *Reader) { _ = r.String() }},
		{"empty u8", nil, func(r *Reader) { r.U8() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(tt.buf)
			tt.read(r)
			if !errors.Is(r.Err(), ErrTruncated) {
				t.Fatalf("Err() = %v, want ErrTruncated", r.Err())
			}
		})
	}
}

func TestReaderErrorSticks(t *testing.T) {
	r := NewReader([]byte{1})
	r.U32() // fails
	if got := r.U8(); got != 0 {
		t.Fatalf("read after error = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err() = %v", r.Err())
	}
}

func TestReaderDoneTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done() = %v, want ErrTrailing", err)
	}
}

func TestAppendStringPanicsOnHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendString accepted a >64KB string")
		}
	}()
	AppendString(nil, string(make([]byte, 70_000)))
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	out, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode(Encode(%#v)): %v", m, err)
	}
	return out
}

func TestOpenRoundTrip(t *testing.T) {
	in := &Open{ClientID: "c1", ClientAddr: "client-1", Movie: "casablanca"}
	got, ok := roundTrip(t, in).(*Open)
	if !ok || *got != *in {
		t.Fatalf("got %#v, want %#v", got, in)
	}
}

func TestOpenReplyRoundTrip(t *testing.T) {
	in := &OpenReply{
		OK:           true,
		Movie:        "casablanca",
		TotalFrames:  2700,
		FPS:          30,
		SessionGroup: "session.c1",
	}
	got, ok := roundTrip(t, in).(*OpenReply)
	if !ok || *got != *in {
		t.Fatalf("got %#v, want %#v", got, in)
	}
	errIn := &OpenReply{OK: false, Error: "no such movie"}
	gotErr, ok := roundTrip(t, errIn).(*OpenReply)
	if !ok || *gotErr != *errIn {
		t.Fatalf("got %#v, want %#v", gotErr, errIn)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := &Frame{
		Movie:   "casablanca",
		Index:   1234,
		Class:   FrameI,
		Payload: bytes.Repeat([]byte{0x5A}, 5833),
	}
	got, ok := roundTrip(t, in).(*Frame)
	if !ok {
		t.Fatal("wrong type")
	}
	if got.Movie != in.Movie || got.Index != in.Index || got.Class != in.Class {
		t.Fatalf("header mismatch: %#v", got)
	}
	if !bytes.Equal(got.Payload, in.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestFlowControlRoundTrip(t *testing.T) {
	for _, k := range []FlowKind{FlowIncrease, FlowDecrease, FlowEmergencyMinor, FlowEmergencyMajor} {
		in := &FlowControl{ClientID: "c9", Request: k, Occupancy: 53}
		got, ok := roundTrip(t, in).(*FlowControl)
		if !ok || *got != *in {
			t.Fatalf("kind %v: got %#v, want %#v", k, got, in)
		}
	}
}

func TestVCRRoundTrip(t *testing.T) {
	for _, op := range []VCROp{VCRPause, VCRResume, VCRSeek, VCRQuality, VCRStop} {
		in := &VCR{ClientID: "c2", Op: op, Arg: 777}
		got, ok := roundTrip(t, in).(*VCR)
		if !ok || *got != *in {
			t.Fatalf("op %v: got %#v, want %#v", op, got, in)
		}
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	in := &ClientState{
		Server:   "server-2",
		ViewSeq:  7,
		Newcomer: true,
		Clients: []ClientRecord{
			{
				ClientID:   "c1",
				ClientAddr: "client-1",
				Offset:     1140,
				Rate:       31,
				QualityFPS: 0,
				Paused:     false,
				SentAt:     1_700_000_000_123,
			},
			{
				ClientID:   "c2",
				ClientAddr: "client-2",
				Offset:     88,
				Rate:       29,
				QualityFPS: 15,
				Paused:     true,
				Departed:   true,
				SentAt:     1_700_000_000_456,
			},
		},
	}
	got, ok := roundTrip(t, in).(*ClientState)
	if !ok {
		t.Fatal("wrong type")
	}
	if got.Server != in.Server || len(got.Clients) != len(in.Clients) ||
		got.ViewSeq != in.ViewSeq || got.Newcomer != in.Newcomer {
		t.Fatalf("got %#v", got)
	}
	for i := range in.Clients {
		if got.Clients[i] != in.Clients[i] {
			t.Fatalf("client %d: got %#v, want %#v", i, got.Clients[i], in.Clients[i])
		}
	}
}

// TestInternTableIsCapped: a sync stream naming more distinct clients than
// the intern table holds keeps the table at its cap, and every record still
// decodes to its own strings.
func TestInternTableIsCapped(t *testing.T) {
	const perSync, syncs = 1000, 3 // two strings a record: 6,000 in all
	tab := Intern{}
	var m ClientState
	for k := range syncs {
		recs := make([]ClientRecord, perSync)
		for i := range recs {
			n := k*perSync + i
			recs[i] = ClientRecord{ClientID: fmt.Sprintf("client-%d", n), ClientAddr: fmt.Sprintf("10.0.%d.%d:7100", n/256, n%256), Offset: uint32(n)}
		}
		if err := DecodeClientStateInto(&m, tab, Encode(&ClientState{Server: "server-1", Clients: recs})); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.Clients, recs) || m.Server != "server-1" {
			t.Fatalf("sync %d decoded to other records than were sent", k)
		}
	}
	if len(tab) != maxInterned {
		t.Fatalf("intern table holds %d strings after %d distinct ones, want the cap %d", len(tab), 1+2*perSync*syncs, maxInterned)
	}
}

func TestClientStateEmpty(t *testing.T) {
	in := &ClientState{Server: "server-1"}
	got, ok := roundTrip(t, in).(*ClientState)
	if !ok || got.Server != "server-1" || len(got.Clients) != 0 {
		t.Fatalf("got %#v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	tests := [][]byte{
		nil,
		{0},                // kind 0
		{99},               // unknown kind
		{byte(KindFrame)},  // truncated body
		{byte(KindVCR), 0}, // truncated body
	}
	for _, buf := range tests {
		if _, err := Decode(buf); err == nil {
			t.Fatalf("Decode(%v) accepted garbage", buf)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	// VCR has no optional trailing fields: any extra byte is an error.
	b := Encode(&VCR{ClientID: "c", Op: VCRPause})
	b = append(b, 0xFF)
	if _, err := Decode(b); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Decode with trailing byte = %v, want ErrTrailing", err)
	}
	// Open accepts at most two optional bytes (class, then lease flags);
	// three extras are trailing.
	o := Encode(&Open{ClientID: "c", ClientAddr: "a", Movie: "m"})
	o = append(o, 0xFF, 0xFF, 0xFF)
	if _, err := Decode(o); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Decode Open with three trailing bytes = %v, want ErrTrailing", err)
	}
}

// TestFrameRoundTripProperty fuzzes frame fields through encode/decode.
func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(movie string, index uint32, class uint8, payload []byte) bool {
		if len(movie) > 0xFFFF {
			movie = movie[:0xFFFF]
		}
		in := &Frame{
			Movie:   movie,
			Index:   index,
			Class:   FrameClass(class%3 + 1),
			Payload: payload,
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		f, ok := out.(*Frame)
		if !ok {
			return false
		}
		return f.Movie == in.Movie && f.Index == in.Index &&
			f.Class == in.Class && bytes.Equal(f.Payload, in.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderNeverPanics feeds random bytes through every decoder; decoders
// must fail cleanly, never panic.
func TestReaderNeverPanics(t *testing.T) {
	prop := func(buf []byte) bool {
		_, _ = Decode(buf)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	f := &Frame{Movie: "casablanca", Index: 1, Class: FrameP, Payload: make([]byte, 5833)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(f)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	buf := Encode(&Frame{Movie: "casablanca", Index: 1, Class: FrameP, Payload: make([]byte, 5833)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
