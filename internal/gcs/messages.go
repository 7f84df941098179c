package gcs

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// proposalID orders concurrent view-change proposals: higher round wins,
// and within a round the lower coordinator wins (it is the legitimate one).
type proposalID struct {
	Round uint64
	Coord ProcessID
}

// supersedes reports whether b should replace a as the proposal a member
// follows. The zero proposalID is superseded by any real proposal.
func (b proposalID) supersedes(a proposalID) bool {
	if b.Round != a.Round {
		return b.Round > a.Round
	}
	if a.Coord == "" {
		return b.Coord != ""
	}
	return b.Coord < a.Coord
}

func (b proposalID) String() string { return fmt.Sprintf("r%d@%s", b.Round, b.Coord) }

// Internal message kinds. These share the GCS transport channel.
const (
	kindHeartbeat uint8 = iota + 1
	kindDirect
	kindAnycast
	kindMcast
	kindNak
	kindAckVec
	kindPresence
	kindPropose
	kindSyncInfo
	kindCut
	kindCutDone
	kindInstall
	kindLeave
	kindAgreedReq
)

type (
	msgHeartbeat struct{}

	msgDirect struct{ payload []byte }

	msgAnycast struct {
		group   string
		payload []byte
	}

	// msgMcast carries one group multicast. sender is the original
	// sender, which differs from the transport source on retransmission.
	msgMcast struct {
		group   string
		view    ViewID
		sender  ProcessID
		seq     uint64
		payload []byte
	}

	// msgNak requests retransmission of sender's messages [from, to).
	msgNak struct {
		group  string
		view   ViewID
		sender ProcessID
		from   uint64
		to     uint64
	}

	// msgAckVec gossips the member's delivered-count vector, used for
	// stability (garbage collection of retained messages) and tail-loss
	// repair.
	msgAckVec struct {
		group     string
		view      ViewID
		delivered vec
	}

	// msgPresence announces a view to processes outside it, triggering
	// joins and partition merges.
	msgPresence struct {
		group   string
		view    ViewID
		members []ProcessID
	}

	// msgPropose opens a view change over the candidate membership.
	msgPropose struct {
		group      string
		pid        proposalID
		candidates []ProcessID
	}

	// msgSyncInfo reports a candidate's state to the proposal
	// coordinator: its current view and its multicast cut.
	msgSyncInfo struct {
		group      string
		pid        proposalID
		oldView    ViewID
		oldMembers []ProcessID
		sendSeq    uint64
		recvNext   vec
	}

	// msgCut distributes the agreed delivery targets for the old views.
	msgCut struct {
		group   string
		pid     proposalID
		targets vec
	}

	// msgCutDone reports that the member reached the cut.
	msgCutDone struct {
		group string
		pid   proposalID
	}

	// msgInstall commits the new view.
	msgInstall struct {
		group   string
		pid     proposalID
		view    ViewID
		members []ProcessID
	}

	// msgLeave announces a graceful departure from the group.
	msgLeave struct{ group string }

	// msgAgreedReq hands an agreed-multicast payload to the view
	// coordinator for total ordering (seq is the sender's agreed
	// sequence number).
	msgAgreedReq struct {
		group   string
		seq     uint64
		payload []byte
	}
)

// groupOf returns the group a message is scoped to.
func groupOf(m any) (string, bool) {
	switch m := m.(type) {
	case *msgAnycast:
		return m.group, true
	case *msgMcast:
		return m.group, true
	case *msgNak:
		return m.group, true
	case *msgAckVec:
		return m.group, true
	case *msgPresence:
		return m.group, true
	case *msgPropose:
		return m.group, true
	case *msgSyncInfo:
		return m.group, true
	case *msgCut:
		return m.group, true
	case *msgCutDone:
		return m.group, true
	case *msgInstall:
		return m.group, true
	case *msgLeave:
		return m.group, true
	case *msgAgreedReq:
		return m.group, true
	default:
		return "", false
	}
}

func appendViewID(b []byte, v ViewID) []byte {
	b = wire.AppendU64(b, v.Seq)
	return wire.AppendString(b, string(v.Coord))
}

func appendPID(b []byte, pid proposalID) []byte {
	b = wire.AppendU64(b, pid.Round)
	return wire.AppendString(b, string(pid.Coord))
}

func appendIDs(b []byte, ids []ProcessID) []byte {
	b = wire.AppendU16(b, uint16(len(ids)))
	for _, id := range ids {
		b = wire.AppendString(b, string(id))
	}
	return b
}

// vec is a per-process counter vector as it travels: (id, value) pairs in
// wire order. A sender encodes its view's members in rank order, which is
// sorted; a receiver aligns the pairs to its own view's ranks with each, so
// nothing a vector names outside that view ever becomes state.
type vec struct {
	ids  []ProcessID
	vals []uint64
}

// each calls f(rank, value) for every entry whose ID is in members (sorted
// ascending), in entry order — on a repeated ID the last entry wins. Sorted
// input, all an honest encoder produces, is one merge walk; an ID the walk
// does not land on is found by binary search, which keeps unsorted input
// correct and a stranger cheap.
func (v vec) each(members []ProcessID, f func(rank int, val uint64)) {
	j := 0
	for i, id := range v.ids {
		for j < len(members) && members[j] < id {
			j++
		}
		r, ok := j, j < len(members) && members[j] == id
		if !ok {
			r, ok = slices.BinarySearch(members, id)
		}
		if ok {
			f(r, v.vals[i])
		}
	}
}

// alignTo overwrites row, which goes by rank in members, with v's values; a
// member v does not name reads zero.
func (v vec) alignTo(members []ProcessID, row []uint64) {
	clear(row)
	v.each(members, func(r int, val uint64) { row[r] = val })
}

func appendVec(b []byte, v vec) []byte {
	b = wire.AppendU16(b, uint16(len(v.ids)))
	for i, id := range v.ids {
		b = wire.AppendString(b, string(id))
		b = wire.AppendU64(b, v.vals[i])
	}
	return b
}

// heartbeatPkt is the singleton heartbeat datagram: one constant byte, sent
// to every peer every tick, so per-send allocation would be pure waste.
// Send implementations never mutate the payload.
var heartbeatPkt = []byte{kindHeartbeat}

func encodeHeartbeat() []byte { return heartbeatPkt }

// appendDirect and appendAnycast frame into caller scratch: the Process
// send paths reuse one buffer per process (see Process.sendBuf).
func appendDirect(b, payload []byte) []byte {
	b = wire.AppendU8(b, kindDirect)
	return wire.AppendBytes(b, payload)
}

func appendAnycast(b []byte, group string, payload []byte) []byte {
	b = wire.AppendU8(b, kindAnycast)
	b = wire.AppendString(b, group)
	return wire.AppendBytes(b, payload)
}

// appendMcast frames a multicast into caller scratch for the send and
// retransmission paths, which run once per reliable message.
func appendMcast(b []byte, m *msgMcast) []byte {
	b = wire.AppendU8(b, kindMcast)
	b = wire.AppendString(b, m.group)
	b = appendViewID(b, m.view)
	b = wire.AppendString(b, string(m.sender))
	b = wire.AppendU64(b, m.seq)
	return wire.AppendBytes(b, m.payload)
}

// The control kinds below frame into a member's scratch (Member.encBuf) too:
// every send site hands the packet to Send for every destination before
// anything it calls can frame another.

func appendNak(b []byte, m *msgNak) []byte {
	b = wire.AppendU8(b, kindNak)
	b = wire.AppendString(b, m.group)
	b = appendViewID(b, m.view)
	b = wire.AppendString(b, string(m.sender))
	b = wire.AppendU64(b, m.from)
	return wire.AppendU64(b, m.to)
}

// appendAckVec frames the periodic ack gossip into caller scratch: it runs
// hot enough that a fresh packet buffer per tick shows up in profiles.
func appendAckVec(b []byte, m *msgAckVec) []byte {
	b = wire.AppendU8(b, kindAckVec)
	b = wire.AppendString(b, m.group)
	b = appendViewID(b, m.view)
	return appendVec(b, m.delivered)
}

// appendPresence frames the periodic presence announcement and its relay.
func appendPresence(b []byte, group string, view ViewID, members []ProcessID) []byte {
	b = wire.AppendU8(b, kindPresence)
	b = wire.AppendString(b, group)
	b = appendViewID(b, view)
	return appendIDs(b, members)
}

func appendPropose(b []byte, m *msgPropose) []byte {
	b = wire.AppendU8(b, kindPropose)
	b = wire.AppendString(b, m.group)
	b = appendPID(b, m.pid)
	return appendIDs(b, m.candidates)
}

func appendSyncInfo(b []byte, m *msgSyncInfo) []byte {
	b = wire.AppendU8(b, kindSyncInfo)
	b = wire.AppendString(b, m.group)
	b = appendPID(b, m.pid)
	b = appendViewID(b, m.oldView)
	b = appendIDs(b, m.oldMembers)
	b = wire.AppendU64(b, m.sendSeq)
	return appendVec(b, m.recvNext)
}

func appendCut(b []byte, m *msgCut) []byte {
	b = wire.AppendU8(b, kindCut)
	b = wire.AppendString(b, m.group)
	b = appendPID(b, m.pid)
	return appendVec(b, m.targets)
}

func appendCutDone(b []byte, m *msgCutDone) []byte {
	b = wire.AppendU8(b, kindCutDone)
	b = wire.AppendString(b, m.group)
	return appendPID(b, m.pid)
}

func appendInstall(b []byte, m *msgInstall) []byte {
	b = wire.AppendU8(b, kindInstall)
	b = wire.AppendString(b, m.group)
	b = appendPID(b, m.pid)
	b = appendViewID(b, m.view)
	return appendIDs(b, m.members)
}

// encodeLeave frames a packet of its own: Leave sends after releasing p.mu,
// so it cannot borrow the member scratch.
func encodeLeave(m *msgLeave) []byte {
	b := make([]byte, 0, 32)
	b = wire.AppendU8(b, kindLeave)
	return wire.AppendString(b, m.group)
}

// appendAgreedReq frames into the member scratch on the retry tick, and into
// a buffer of its own in MulticastAgreed, which sends after releasing p.mu.
func appendAgreedReq(b []byte, m *msgAgreedReq) []byte {
	b = wire.AppendU8(b, kindAgreedReq)
	b = wire.AppendString(b, m.group)
	b = wire.AppendU64(b, m.seq)
	return wire.AppendBytes(b, m.payload)
}
