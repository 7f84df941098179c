package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns one valid encoding of every message kind, including the
// optional trailing fields (class bytes, retry hints), plus a few known
// nasty shapes — truncations and hostile length prefixes.
func fuzzSeeds() [][]byte {
	seeds := [][]byte{
		Encode(&Open{ClientID: "client-1", ClientAddr: "client-1", Movie: "feature"}),
		Encode(&Open{ClientID: "client-1", ClientAddr: "client-1", Movie: "feature", Class: ClassBestEffort}),
		Encode(&OpenReply{OK: true, Movie: "feature", TotalFrames: 1800, FPS: 30, SessionGroup: "vod.session.client-1"}),
		Encode(&OpenReply{Error: "at capacity", Movie: "feature", RetryAfterMs: 1000}),
		Encode(&Frame{Movie: "feature", Index: 42, Class: FrameP, Payload: []byte{1, 2, 3, 4}}),
		Encode(&FlowControl{ClientID: "client-1", Request: FlowEmergencyMajor, Occupancy: 11}),
		Encode(&VCR{ClientID: "client-1", Op: VCRSeek, Arg: 900}),
		Encode(&ClientState{Server: "server-1", ViewSeq: 3, Newcomer: true, Clients: []ClientRecord{
			{ClientID: "client-1", ClientAddr: "client-1", Offset: 7, Rate: 30, SentAt: 99},
			{ClientID: "client-2", ClientAddr: "client-2", Offset: 9, Rate: 28, QualityFPS: 10, Paused: true, SentAt: 98, Class: ClassBestEffort},
		}}),
		{},                      // empty
		{0},                     // kind 0
		{byte(KindClientState)}, // truncated header
		{byte(KindClientState), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}, // hostile record count
		{byte(KindFrame), 0xFF, 0xFF},                                        // string length past end
		Encode(&Open{ClientID: "client-1", ClientAddr: "client-1", Movie: "feature", Lease: true, Takeover: true}),
		Encode(&OpenReply{OK: true, Movie: "feature", TotalFrames: 1800, FPS: 30, LeaseTTLMs: 3000}),
		Encode(&ClientState{Server: "server-1"}),
	}
	return seeds
}

// decodeDirty decodes b through its kind's Into form into scratch that a
// previous, different message left behind: stale strings, every optional
// field set, and more client records than most inputs carry. ok is false
// for a kind with no Into form.
func decodeDirty(b []byte) (m Message, err error, ok bool) {
	stale := ClientRecord{ClientID: "stale", ClientAddr: "stale", Offset: 1, Rate: 2, QualityFPS: 3,
		Paused: true, Departed: true, SentAt: 4, Class: ClassBestEffort, Leased: true}
	switch Kind(b[0]) {
	case KindOpen:
		o := &Open{ClientID: "stale", ClientAddr: "stale", Movie: "stale", Class: ClassBestEffort, Lease: true, Takeover: true}
		return o, DecodeOpenInto(o, b), true
	case KindOpenReply:
		o := &OpenReply{OK: true, Error: "stale", Movie: "stale", TotalFrames: 1, FPS: 2, SessionGroup: "stale", RetryAfterMs: 3, LeaseTTLMs: 4}
		return o, DecodeOpenReplyInto(o, b), true
	case KindFrame:
		f := &Frame{Movie: "stale", Index: 1, Class: FrameB, Payload: []byte("stale")}
		return f, DecodeFrameInto(f, b), true
	case KindFlowControl:
		f := &FlowControl{ClientID: "stale", Request: FlowDecrease, Occupancy: 1}
		return f, DecodeFlowControlInto(f, b), true
	case KindVCR:
		v := &VCR{ClientID: "stale", Op: VCRStop, Arg: 1}
		return v, decodeVCRInto(v, b), true
	case KindClientState:
		c := &ClientState{Server: "stale", ViewSeq: 1, Newcomer: true, Clients: append(make([]ClientRecord, 0, 8), stale, stale, stale, stale)}
		return c, DecodeClientStateInto(c, Intern{"stale": "stale"}, b), true
	}
	return nil, nil, false
}

// FuzzDecodeMessage feeds arbitrary bytes to the generic decoder. Four
// properties must hold: no panic on any input; any message that decodes
// must re-encode to something that decodes again to the same bytes
// (decode∘encode idempotence, which also exercises the optional trailing
// fields both absent and present); the re-encoding is exactly as long as
// the message's encodedSize says, so a format change that forgets its size
// fails here; and the kind's Into form, decoding into dirty scratch, must
// accept exactly what Decode accepts and re-encode to the same bytes — no
// field of the previous message survives.
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if len(b) > 0 {
			if into, ierr, ok := decodeDirty(b); ok {
				switch {
				case (err == nil) != (ierr == nil):
					t.Fatalf("Decode says %v, the Into form into dirty scratch says %v (input %x)", err, ierr, b)
				case err == nil && !bytes.Equal(Encode(into), Encode(m)):
					t.Fatalf("the Into form into dirty scratch gives %+v, Decode gives %+v (input %x)", into, m, b)
				}
			}
		}
		if err != nil {
			return
		}
		b2 := Encode(m)
		if len(b2) != 1+m.encodedSize() {
			t.Fatalf("%v: encodedSize says a %d-byte frame, Encode writes %d (input %x)", m.Kind(), 1+m.encodedSize(), len(b2), b)
		}
		m2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-encoding decoded message failed to decode: %v\ninput  %x\nencode %x", err, b, b2)
		}
		if b3 := Encode(m2); !bytes.Equal(b2, b3) {
			t.Fatalf("encode not stable after round trip:\nfirst  %x\nsecond %x", b2, b3)
		}
	})
}

// FuzzDecodeOpenInto hands every input, whatever its kind byte, to the Open
// decoder the server reuses its scratch with. FuzzDecodeMessage only
// reaches an Into form through its own kind; this one checks that
// DecodeOpenInto accepts exactly the inputs Decode accepts as an Open, and
// then gives the same value in dirty scratch.
func FuzzDecodeOpenInto(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		scratch := Open{ClientID: "stale", ClientAddr: "stale", Movie: "stale", Class: ClassBestEffort, Lease: true, Takeover: true}
		err := DecodeOpenInto(&scratch, b)
		m, gerr := Decode(b)
		want, isOpen := m.(*Open)
		switch {
		case gerr == nil && isOpen && err != nil:
			t.Fatalf("Decode accepted an Open but DecodeOpenInto rejected it: %v (input %x)", err, b)
		case gerr == nil && isOpen && scratch != *want:
			t.Fatalf("DecodeOpenInto disagrees with Decode:\n got %+v\nwant %+v", scratch, *want)
		case !(gerr == nil && isOpen) && err == nil:
			t.Fatalf("DecodeOpenInto accepted input Decode does not take as an Open: %x", b)
		}
	})
}
