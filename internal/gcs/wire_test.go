package gcs

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
)

// TestWireBytesUnchanged pins the encoding of every kind that carries a
// vector or a view against bytes captured from the map-based encoder (commit
// f7f9dc1): the rank-indexed state must put exactly those bytes on the wire,
// or packet sizes — and with them every simulated serialisation time — move.
// The one deliberate change since is the ack vector, which carries only the
// delivered counts. Each packet must also survive decode and re-encode
// unchanged.
func TestWireBytesUnchanged(t *testing.T) {
	view := ViewID{Seq: 7, Coord: "s1"}
	pid := proposalID{Round: 9, Coord: "s2"}
	ids := []ProcessID{"s1", "s2", "s3"}
	delivered := vec{ids, []uint64{5, 0, 1 << 40}}
	targets := vec{ids, []uint64{6, 2, 1<<40 + 1}}

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"ackvec", appendAckVec(nil, &msgAckVec{group: "movie/x", view: view, delivered: delivered}),
			"0600076d6f7669652f780000000000000007000273310003000273310000000000000005000273320000000000000000000273330000010000000000"},
		{"syncinfo", encodeSyncInfo(&msgSyncInfo{group: "movie/x", pid: pid, oldView: view, oldMembers: ids, sendSeq: 11, recvNext: delivered}),
			"0900076d6f7669652f780000000000000009000273320000000000000007000273310003000273310002733200027333000000000000000b0003000273310000000000000005000273320000000000000000000273330000010000000000"},
		{"cut", encodeCut(&msgCut{group: "movie/x", pid: pid, targets: targets}),
			"0a00076d6f7669652f780000000000000009000273320003000273310000000000000006000273320000000000000002000273330000010000000001"},
		{"cut with no targets", encodeCut(&msgCut{group: "movie/x", pid: pid}),
			"0a00076d6f7669652f780000000000000009000273320000"},
		{"install", encodeInstall(&msgInstall{group: "movie/x", pid: pid, view: ViewID{Seq: 8, Coord: "s2"}, members: ids}),
			"0c00076d6f7669652f780000000000000009000273320000000000000008000273320003000273310002733200027333"},
		{"presence", encodePresence(&msgPresence{group: "movie/x", view: view, members: ids}),
			"0700076d6f7669652f780000000000000007000273310003000273310002733200027333"},
		{"mcast", encodeMcast(&msgMcast{group: "movie/x", view: view, sender: "s3", seq: 42, payload: []byte{payloadPlain, 'h', 'i'}}),
			"0400076d6f7669652f7800000000000000070002733100027333000000000000002a00000003006869"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes as\n  %s, want\n  %s", tc.name, got, tc.want)
			continue
		}
		var c codec
		msg, err := c.decode(tc.got)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		var again []byte
		switch m := msg.(type) {
		case *msgAckVec:
			again = appendAckVec(nil, m)
		case *msgSyncInfo:
			again = encodeSyncInfo(m)
		case *msgCut:
			again = encodeCut(m)
		case *msgInstall:
			again = encodeInstall(m)
		case *msgPresence:
			again = encodePresence(m)
		case *msgMcast:
			again = encodeMcast(m)
		}
		if !bytes.Equal(again, tc.got) {
			t.Errorf("%s: decode then encode gives\n  %x, want\n  %x", tc.name, again, tc.got)
		}
	}
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
		msg, err := c.decode(encodeCut(&msgCut{group: "g", targets: in}))
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		got := make([]uint64, len(members))
		msg.(*msgCut).targets.each(members, func(r int, v uint64) { got[r] = v })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: %v=%v aligned to %v gives %v, the map gave %v", round, in.ids, in.vals, members, got, want)
		}
		out, err := c.decode(encodeCut(&msgCut{group: "g", targets: vec{members, got}}))
		if err != nil {
			t.Fatalf("round %d: decode of the aligned row: %v", round, err)
		}
		if v := out.(*msgCut).targets; !slices.Equal(v.ids, members) || !slices.Equal(v.vals, want) {
			t.Fatalf("round %d: aligned row travels as %v=%v, want %v=%v", round, v.ids, v.vals, members, want)
		}
	}
}
