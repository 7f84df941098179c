package wire

import (
	"bytes"
	"testing"
)

// TestOpenClassRoundTrip covers the optional trailing class byte on Open.
func TestOpenClassRoundTrip(t *testing.T) {
	in := &Open{ClientID: "c1", ClientAddr: "c1", Movie: "m", Class: ClassBestEffort}
	out := mustDecode(t, Encode(in)).(*Open)
	if *out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	var scratch Open
	if err := DecodeOpenInto(&scratch, Encode(in)); err != nil {
		t.Fatal(err)
	}
	if scratch != *in {
		t.Fatalf("DecodeOpenInto: got %+v, want %+v", scratch, in)
	}
	// Decoding a reserved Open into the same scratch must clear the class.
	reserved := &Open{ClientID: "c1", ClientAddr: "c1", Movie: "m"}
	if err := DecodeOpenInto(&scratch, Encode(reserved)); err != nil {
		t.Fatal(err)
	}
	if scratch.Class != ClassReserved {
		t.Fatalf("scratch class not reset: %v", scratch.Class)
	}
}

// TestOpenReservedLegacyBytes pins the compatibility contract: a
// reserved-class Open encodes byte-identically to one that predates the
// Class field, and pre-class bytes decode as reserved.
func TestOpenReservedLegacyBytes(t *testing.T) {
	classed := Encode(&Open{ClientID: "c1", ClientAddr: "a1", Movie: "m", Class: ClassReserved})
	var legacy []byte
	legacy = AppendU8(legacy, uint8(KindOpen))
	legacy = AppendString(legacy, "c1")
	legacy = AppendString(legacy, "a1")
	legacy = AppendString(legacy, "m")
	if !bytes.Equal(classed, legacy) {
		t.Fatalf("reserved Open not byte-identical to legacy encoding:\n got %x\nwant %x", classed, legacy)
	}
	m := mustDecode(t, legacy).(*Open)
	if m.Class != ClassReserved {
		t.Fatalf("legacy bytes decoded class %v, want reserved", m.Class)
	}
}

// TestOpenReplyRetryAfterRoundTrip covers the optional trailing retry hint.
func TestOpenReplyRetryAfterRoundTrip(t *testing.T) {
	in := &OpenReply{Error: "busy", Movie: "m", RetryAfterMs: 1500}
	out := mustDecode(t, Encode(in)).(*OpenReply)
	if *out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	var scratch OpenReply
	if err := DecodeOpenReplyInto(&scratch, Encode(in)); err != nil {
		t.Fatal(err)
	}
	if scratch != *in {
		t.Fatalf("DecodeOpenReplyInto: got %+v, want %+v", scratch, in)
	}
	// A hint-free reply decoded into the same scratch must clear the hint.
	ok := &OpenReply{OK: true, Movie: "m", TotalFrames: 10, FPS: 30, SessionGroup: "g"}
	if err := DecodeOpenReplyInto(&scratch, Encode(ok)); err != nil {
		t.Fatal(err)
	}
	if scratch.RetryAfterMs != 0 {
		t.Fatalf("scratch retry hint not reset: %d", scratch.RetryAfterMs)
	}

	// No-hint replies stay byte-identical to the legacy encoding.
	var legacy []byte
	legacy = AppendU8(legacy, uint8(KindOpenReply))
	legacy = appendBool(legacy, true)
	legacy = AppendString(legacy, "")
	legacy = AppendString(legacy, "m")
	legacy = AppendU32(legacy, 10)
	legacy = AppendU16(legacy, 30)
	legacy = AppendString(legacy, "g")
	if !bytes.Equal(Encode(ok), legacy) {
		t.Fatalf("hint-free OpenReply not byte-identical to legacy encoding")
	}
}

// TestClientStateClassRoundTrip covers the optional trailing per-record
// class block on ClientState.
func TestClientStateClassRoundTrip(t *testing.T) {
	in := &ClientState{
		Server: "server-1",
		Clients: []ClientRecord{
			{ClientID: "c1", ClientAddr: "a1", Offset: 7, Rate: 30, SentAt: 99},
			{ClientID: "c2", ClientAddr: "a2", Offset: 9, Rate: 28, SentAt: 98, Class: ClassBestEffort},
		},
	}
	out := mustDecode(t, Encode(in)).(*ClientState)
	if len(out.Clients) != 2 || out.Clients[0].Class != ClassReserved || out.Clients[1].Class != ClassBestEffort {
		t.Fatalf("classes lost in round trip: %+v", out.Clients)
	}

	// All-reserved syncs omit the class block entirely.
	allReserved := &ClientState{
		Server: "server-1",
		Clients: []ClientRecord{
			{ClientID: "c1", ClientAddr: "a1", Offset: 7, Rate: 30, SentAt: 99},
		},
	}
	without := Encode(allReserved)
	// Decode+encode idempotence catches an accidental always-append of the
	// class block.
	redecoded := mustDecode(t, without).(*ClientState)
	if !bytes.Equal(Encode(redecoded), without) {
		t.Fatalf("all-reserved ClientState not stable across decode/encode")
	}
	for _, c := range redecoded.Clients {
		if c.Class != ClassReserved {
			t.Fatalf("all-reserved decode produced class %v", c.Class)
		}
	}
}

// TestClientStateRecordCountGuard pins the hostile-count guard: a packet
// claiming 65535 records with a short body must fail before allocating the
// record slice.
func TestClientStateRecordCountGuard(t *testing.T) {
	var b []byte
	b = AppendU8(b, uint8(KindClientState))
	b = AppendString(b, "server-1")
	b = AppendU64(b, 0)
	b = appendBool(b, false)
	b = AppendU16(b, 65535)
	if _, err := Decode(b); err == nil {
		t.Fatal("hostile record count decoded without error")
	}
}

func mustDecode(t *testing.T, b []byte) Message {
	t.Helper()
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
