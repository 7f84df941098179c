package gcs

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestWireBytesUnchanged pins the encoding of every kind that carries a
// vector or a view against bytes captured from the map-based encoder (commit
// f7f9dc1): the rank-indexed state must put exactly those bytes on the wire,
// or packet sizes — and with them every simulated serialisation time — move.
// The one deliberate change since is the ack vector, which carries only the
// delivered counts. Each packet must also survive decode and re-encode
// unchanged, and every kind, the unpinned control kinds too, must frame the
// same bytes into a member's dirty scratch — one that holds a longer packet —
// as into an empty buffer.
func TestWireBytesUnchanged(t *testing.T) {
	view := ViewID{Seq: 7, Coord: "s1"}
	pid := proposalID{Round: 9, Coord: "s2"}
	ids := []ProcessID{"s1", "s2", "s3"}
	delivered := vec{ids, []uint64{5, 0, 1 << 40}}
	targets := vec{ids, []uint64{6, 2, 1<<40 + 1}}
	crowd := strangers(40)
	dirty := appendSyncInfo(nil, &msgSyncInfo{group: "a/much/longer/group", pid: pid, oldView: view, oldMembers: crowd.ids, recvNext: crowd})

	for _, tc := range []struct {
		name  string
		frame func(b []byte) []byte
		want  string // "" for the kinds with no captured bytes
	}{
		{"ackvec", func(b []byte) []byte {
			return appendAckVec(b, &msgAckVec{group: "movie/x", view: view, delivered: delivered})
		}, "0600076d6f7669652f780000000000000007000273310003000273310000000000000005000273320000000000000000000273330000010000000000"},
		{"syncinfo", func(b []byte) []byte {
			return appendSyncInfo(b, &msgSyncInfo{group: "movie/x", pid: pid, oldView: view, oldMembers: ids, sendSeq: 11, recvNext: delivered})
		}, "0900076d6f7669652f780000000000000009000273320000000000000007000273310003000273310002733200027333000000000000000b0003000273310000000000000005000273320000000000000000000273330000010000000000"},
		{"cut", func(b []byte) []byte { return appendCut(b, &msgCut{group: "movie/x", pid: pid, targets: targets}) },
			"0a00076d6f7669652f780000000000000009000273320003000273310000000000000006000273320000000000000002000273330000010000000001"},
		{"cut with no targets", func(b []byte) []byte { return appendCut(b, &msgCut{group: "movie/x", pid: pid}) },
			"0a00076d6f7669652f780000000000000009000273320000"},
		{"install", func(b []byte) []byte {
			return appendInstall(b, &msgInstall{group: "movie/x", pid: pid, view: ViewID{Seq: 8, Coord: "s2"}, members: ids})
		}, "0c00076d6f7669652f780000000000000009000273320000000000000008000273320003000273310002733200027333"},
		{"presence", func(b []byte) []byte {
			return appendPresence(b, &msgPresence{group: "movie/x", view: view, members: ids})
		},
			"0700076d6f7669652f780000000000000007000273310003000273310002733200027333"},
		{"mcast", func(b []byte) []byte {
			return appendMcast(b, &msgMcast{group: "movie/x", view: view, sender: "s3", seq: 42, payload: []byte{payloadPlain, 'h', 'i'}})
		}, "0400076d6f7669652f7800000000000000070002733100027333000000000000002a00000003006869"},
		{"propose", func(b []byte) []byte {
			return appendPropose(b, &msgPropose{group: "movie/x", pid: pid, candidates: ids})
		}, ""},
		{"cutdone", func(b []byte) []byte { return appendCutDone(b, &msgCutDone{group: "movie/x", pid: pid}) }, ""},
		{"nak", func(b []byte) []byte {
			return appendNak(b, &msgNak{group: "movie/x", view: view, sender: "s3", from: 4, to: 9})
		}, ""},
	} {
		got := tc.frame(nil)
		if hex := hex.EncodeToString(got); tc.want != "" && hex != tc.want {
			t.Errorf("%s encodes as\n  %s, want\n  %s", tc.name, hex, tc.want)
			continue
		}
		if again := tc.frame(slices.Clone(dirty)[:0]); !bytes.Equal(again, got) {
			t.Errorf("%s framed into dirty scratch gives\n  %x, want\n  %x", tc.name, again, got)
		}
		var c codec
		msg, err := c.decodeLocked(got)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if again := reencode(msg); !bytes.Equal(again, got) {
			t.Errorf("%s: decode then encode gives\n  %x, want\n  %x", tc.name, again, got)
		}
	}
}

// reencode frames a decoded message again, as its sender framed it.
func reencode(msg any) []byte {
	switch m := msg.(type) {
	case *msgAckVec:
		return appendAckVec(nil, m)
	case *msgSyncInfo:
		return appendSyncInfo(nil, m)
	case *msgCut:
		return appendCut(nil, m)
	case *msgInstall:
		return appendInstall(nil, m)
	case *msgPresence:
		return appendPresence(nil, m)
	case *msgMcast:
		return appendMcast(nil, m)
	case *msgPropose:
		return appendPropose(nil, m)
	case *msgCutDone:
		return appendCutDone(nil, m)
	case *msgNak:
		return appendNak(nil, m)
	}
	return nil
}

// TestCodecReusesEnvelopes: a presence, a cut, a NAK and every message of
// the flush — propose, sync report, cut-done and install — are read during
// dispatch and never kept, so the codec decodes each kind into one envelope
// that keeps its slices' storage. A short message decoded into the envelope
// a long one left behind must be that same envelope and hold exactly what a
// fresh one would — the short lists, nothing of the long ones' tails — so
// it frames again as the short message did.
func TestCodecReusesEnvelopes(t *testing.T) {
	pid := proposalID{Round: 3, Coord: "a"}
	view := ViewID{Seq: 5, Coord: "a"}
	crowd := strangers(32)
	for _, tc := range []struct {
		name        string
		long, short []byte
	}{
		{name: "presence",
			long:  appendPresence(nil, &msgPresence{group: "a/long/group/name", view: view, members: crowd.ids}),
			short: appendPresence(nil, &msgPresence{group: "g", view: ViewID{Seq: 6, Coord: "b"}, members: []ProcessID{"b"}})},
		{name: "cut",
			long:  appendCut(nil, &msgCut{group: "a/long/group/name", pid: pid, targets: crowd}),
			short: appendCut(nil, &msgCut{group: "g", pid: proposalID{Round: 4, Coord: "b"}, targets: vec{[]ProcessID{"b"}, []uint64{7}}})},
		{name: "nak",
			long:  appendNak(nil, &msgNak{group: "a/long/group/name", view: view, sender: crowd.ids[31], from: 1 << 40, to: 1 << 41}),
			short: appendNak(nil, &msgNak{group: "g", view: ViewID{Seq: 6, Coord: "b"}, sender: "b", from: 2, to: 3})},
		{name: "propose",
			long:  appendPropose(nil, &msgPropose{group: "a/long/group/name", pid: pid, candidates: crowd.ids}),
			short: appendPropose(nil, &msgPropose{group: "g", pid: proposalID{Round: 4, Coord: "b"}, candidates: []ProcessID{"b"}})},
		{name: "sync report",
			long:  appendSyncInfo(nil, &msgSyncInfo{group: "a/long/group/name", pid: pid, oldView: view, oldMembers: crowd.ids, sendSeq: 1 << 40, recvNext: crowd}),
			short: appendSyncInfo(nil, &msgSyncInfo{group: "g", pid: proposalID{Round: 4, Coord: "b"}, oldView: ViewID{Seq: 6, Coord: "b"}, oldMembers: []ProcessID{"b"}, sendSeq: 2, recvNext: vec{[]ProcessID{"b"}, []uint64{1}}})},
		{name: "sync report with no vector",
			long:  appendSyncInfo(nil, &msgSyncInfo{group: "a/long/group/name", pid: pid, oldView: view, oldMembers: crowd.ids, sendSeq: 1 << 40, recvNext: crowd}),
			short: appendSyncInfo(nil, &msgSyncInfo{group: "g", pid: proposalID{Round: 4, Coord: "b"}, oldView: ViewID{Seq: 6, Coord: "b"}})},
		{name: "cut-done",
			long:  appendCutDone(nil, &msgCutDone{group: "a/long/group/name", pid: pid}),
			short: appendCutDone(nil, &msgCutDone{group: "g", pid: proposalID{Round: 4, Coord: "b"}})},
		{name: "install",
			long:  appendInstall(nil, &msgInstall{group: "a/long/group/name", pid: pid, view: view, members: crowd.ids}),
			short: appendInstall(nil, &msgInstall{group: "g", pid: proposalID{Round: 4, Coord: "b"}, view: ViewID{Seq: 6, Coord: "b"}, members: []ProcessID{"b"}})},
	} {
		var c codec
		first, err := c.decodeLocked(tc.long)
		if err != nil {
			t.Fatalf("%s: decode the long one: %v", tc.name, err)
		}
		reused, err := c.decodeLocked(tc.short)
		if err != nil {
			t.Fatalf("%s: decode the short one: %v", tc.name, err)
		}
		if reused != first {
			t.Fatalf("%s: the second decode did not reuse the first one's envelope", tc.name)
		}
		if got := reencode(reused); !bytes.Equal(got, tc.short) {
			t.Errorf("%s: decoded into a used envelope, %x frames again as %x", tc.name, tc.short, got)
		}
		var fresh codec
		want, _ := fresh.decodeLocked(tc.short)
		if got, want := emptyAsNil(reused), emptyAsNil(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded into a used envelope gives %+v, a fresh codec %+v", tc.name, got, want)
		}
	}
}

// kindFrame is one datagram of a named kind.
type kindFrame struct {
	name string
	pkt  []byte
}

// everyKind frames one datagram of every kind, the group-scoped ones for
// group, as sender would send them.
func everyKind(group string, sender ProcessID) []kindFrame {
	view := ViewID{Seq: 7, Coord: sender}
	pid := proposalID{Round: 9, Coord: sender}
	ids := []ProcessID{sender, "y", "z"}
	v := vec{ids, []uint64{5, 0, 1 << 40}}
	return []kindFrame{
		{"heartbeat", encodeHeartbeat()},
		{"direct", appendDirect(nil, &msgDirect{payload: []byte("direct")})},
		{"anycast", appendAnycast(nil, &msgAnycast{group: group, payload: []byte("anycast")})},
		{"mcast", appendMcast(nil, &msgMcast{group: group, view: view, sender: sender, seq: 3, payload: []byte{payloadPlain, 'm'}})},
		{"nak", appendNak(nil, &msgNak{group: group, view: view, sender: sender, from: 1, to: 4})},
		{"ackvec", appendAckVec(nil, &msgAckVec{group: group, view: view, delivered: v})},
		{"presence", appendPresence(nil, &msgPresence{group: group, view: view, members: ids})},
		{"propose", appendPropose(nil, &msgPropose{group: group, pid: pid, candidates: ids})},
		{"syncinfo", appendSyncInfo(nil, &msgSyncInfo{group: group, pid: pid, oldView: view, oldMembers: ids, sendSeq: 11, recvNext: v})},
		{"cut", appendCut(nil, &msgCut{group: group, pid: pid, targets: v})},
		{"cutdone", appendCutDone(nil, &msgCutDone{group: group, pid: pid})},
		{"install", appendInstall(nil, &msgInstall{group: group, pid: pid, view: view, members: ids})},
		{"leave", appendLeave(nil, &msgLeave{group: group})},
	}
}

// TestWarmDecodeAllocFree: once a process has decoded a kind, decoding it
// again costs nothing — the envelope, its lists' storage and every string
// (through the intern table) are already there. A process that hears only
// heartbeats, direct datagrams and anycasts — a leased viewer — never makes
// the group kinds' envelopes.
func TestWarmDecodeAllocFree(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	ep, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	defer p.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	decode := func(name string, pkt []byte) {
		if _, err := p.codec.decodeLocked(pkt); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
	}
	for _, k := range everyKind("g", "b") {
		decode(k.name, k.pkt)
		if k.name == "anycast" && p.codec.group != nil {
			t.Fatal("decoding a heartbeat, a direct datagram and an anycast made the group kinds' envelopes")
		}
	}
	for _, k := range everyKind("g", "b") {
		if allocs := testing.AllocsPerRun(100, func() { decode(k.name, k.pkt) }); allocs != 0 {
			t.Errorf("%s: a warm decode makes %v allocations, want 0", k.name, allocs)
		}
	}
}

// emptyAsNil copies a decoded envelope with each empty list set to nil: a
// used envelope keeps its lists' storage, so where a fresh decode has a
// nil list it has an empty one, and the two mean the same. A vector's
// values are left as they are, so a stale tail still shows.
func emptyAsNil(msg any) any {
	ids := func(l []ProcessID) []ProcessID {
		if len(l) == 0 {
			return nil
		}
		return l
	}
	vc := func(v vec) vec {
		if len(v.ids) == 0 && len(v.vals) == 0 {
			return vec{}
		}
		return v
	}
	switch m := msg.(type) {
	case *msgPresence:
		c := *m
		c.members = ids(c.members)
		return c
	case *msgCut:
		c := *m
		c.targets = vc(c.targets)
		return c
	case *msgNak:
		return *m
	case *msgPropose:
		c := *m
		c.candidates = ids(c.candidates)
		return c
	case *msgSyncInfo:
		c := *m
		c.oldMembers = ids(c.oldMembers)
		c.recvNext = vc(c.recvNext)
		return c
	case *msgCutDone:
		return *m
	case *msgInstall:
		c := *m
		c.members = ids(c.members)
		return c
	}
	return msg
}

// TestVectorAlignmentMatchesMaps feeds vectors no honest encoder produces —
// unsorted, with repeated IDs and IDs outside the view — through decode and
// rank alignment, and requires what folding the same pairs into a
// map[ProcessID]uint64 and looking each member up gave: the last entry for an
// ID wins, a stranger leaves no trace, a member not named reads zero, and
// what is encoded from the aligned row is in member order.
func TestVectorAlignmentMatchesMaps(t *testing.T) {
	members := []ProcessID{"m1", "m3", "m5", "m7"}
	universe := []ProcessID{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		var in vec
		for n := rng.Intn(12); n > 0; n-- {
			in.ids = append(in.ids, universe[rng.Intn(len(universe))])
			in.vals = append(in.vals, uint64(rng.Intn(100)))
		}
		if round%3 == 0 { // the honest shape must take the same path to the same answer
			slices.Sort(in.ids)
		}

		byID := map[ProcessID]uint64{}
		for i, id := range in.ids {
			byID[id] = in.vals[i]
		}
		want := make([]uint64, len(members))
		for r, id := range members {
			want[r] = byID[id]
		}

		var c codec
		msg, err := c.decodeLocked(appendCut(nil, &msgCut{group: "g", targets: in}))
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		got := make([]uint64, len(members))
		msg.(*msgCut).targets.each(members, func(r int, v uint64) { got[r] = v })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: %v=%v aligned to %v gives %v, the map gave %v", round, in.ids, in.vals, members, got, want)
		}
		out, err := c.decodeLocked(appendCut(nil, &msgCut{group: "g", targets: vec{members, got}}))
		if err != nil {
			t.Fatalf("round %d: decode of the aligned row: %v", round, err)
		}
		if v := out.(*msgCut).targets; !slices.Equal(v.ids, members) || !slices.Equal(v.vals, want) {
			t.Fatalf("round %d: aligned row travels as %v=%v, want %v=%v", round, v.ids, v.vals, members, want)
		}
	}
}

// frameCase is one kind's frame for TestFramesAreSizedBeforeWritten: the
// size the kind claims and a function that frames it.
type frameCase struct {
	name  string
	size  int
	frame func(b []byte) []byte
}

func frameOf[M interface{ size() int }](name string, m M, frame func([]byte, M) []byte) frameCase {
	return frameCase{name, m.size(), func(b []byte) []byte { return frame(b, m) }}
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

// TestFramesAreSizedBeforeWritten: every kind's size is exactly the length
// its append writes, and framing into an empty buffer allocates only for
// the reservation, not once per field that overflows the buffer.
func TestFramesAreSizedBeforeWritten(t *testing.T) {
	view := ViewID{Seq: 7, Coord: "s1"}
	pid := proposalID{Round: 9, Coord: "s2"}
	crowd := strangers(40)
	payload := make([]byte, 300)
	for _, tc := range []frameCase{
		frameOf("direct", &msgDirect{payload: payload}, appendDirect),
		frameOf("anycast", &msgAnycast{group: wire.ServerGroup, payload: payload}, appendAnycast),
		frameOf("mcast", &msgMcast{group: "movie/x", view: view, sender: "s3", seq: 42, payload: payload}, appendMcast),
		frameOf("nak", &msgNak{group: "movie/x", view: view, sender: "s3", from: 4, to: 9}, appendNak),
		frameOf("ackvec", &msgAckVec{group: "movie/x", view: view, delivered: crowd}, appendAckVec),
		frameOf("presence", &msgPresence{group: "movie/x", view: view, members: crowd.ids}, appendPresence),
		frameOf("propose", &msgPropose{group: "movie/x", pid: pid, candidates: crowd.ids}, appendPropose),
		frameOf("syncinfo", &msgSyncInfo{group: "movie/x", pid: pid, oldView: view, oldMembers: crowd.ids, sendSeq: 11, recvNext: crowd}, appendSyncInfo),
		frameOf("cut", &msgCut{group: "movie/x", pid: pid, targets: crowd}, appendCut),
		frameOf("cut with no targets", &msgCut{group: "movie/x", pid: pid}, appendCut),
		frameOf("cutdone", &msgCutDone{group: "movie/x", pid: pid}, appendCutDone),
		frameOf("install", &msgInstall{group: "movie/x", pid: pid, view: view, members: crowd.ids}, appendInstall),
		frameOf("leave", &msgLeave{group: "movie/x"}, appendLeave),
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
