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
	// 14 is retired (the agreed-order request) and must not be reused.
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
	default:
		return "", false
	}
}

// Every frame is sized before it is written: each kind's size is the exact
// length its append function writes, kind byte included, and the append
// reserves it before the first field, so framing into an empty buffer costs
// one allocation and into a warm scratch none. The field sizes follow the
// wire primitives: a string is its u16 length and bytes, a payload its u32
// length and bytes.
func strSize(s string) int { return 2 + len(s) }

// coordSize is the size of a ViewID or a proposalID: a u64, then the
// coordinator's ID.
func coordSize(coord ProcessID) int { return 8 + strSize(string(coord)) }

func idsSize(ids []ProcessID) int {
	n := 2
	for _, id := range ids {
		n += strSize(string(id))
	}
	return n
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

func (v vec) size() int { return idsSize(v.ids) + 8*len(v.vals) }

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

// appendHead reserves a frame of size bytes in b and writes the head every
// kind but a direct datagram starts with: the kind byte, then the group.
func appendHead(b []byte, size int, kind uint8, group string) []byte {
	b = slices.Grow(b, size)
	b = wire.AppendU8(b, kind)
	return wire.AppendString(b, group)
}

// appendDirect and appendAnycast frame into caller scratch: the Process
// send paths reuse one buffer per process (see Process.sendBuf).
func appendDirect(b []byte, m *msgDirect) []byte {
	b = slices.Grow(b, m.size())
	b = wire.AppendU8(b, kindDirect)
	return wire.AppendBytes(b, m.payload)
}

func (m *msgDirect) size() int { return 1 + 4 + len(m.payload) }

func appendAnycast(b []byte, m *msgAnycast) []byte {
	b = appendHead(b, m.size(), kindAnycast, m.group)
	return wire.AppendBytes(b, m.payload)
}

func (m *msgAnycast) size() int { return 1 + strSize(m.group) + 4 + len(m.payload) }

// appendMcast frames a multicast into caller scratch for the send and
// retransmission paths, which run once per reliable message.
func appendMcast(b []byte, m *msgMcast) []byte {
	b = appendHead(b, m.size(), kindMcast, m.group)
	b = appendViewID(b, m.view)
	b = wire.AppendString(b, string(m.sender))
	b = wire.AppendU64(b, m.seq)
	return wire.AppendBytes(b, m.payload)
}

func (m *msgMcast) size() int {
	return 1 + strSize(m.group) + coordSize(m.view.Coord) + strSize(string(m.sender)) + 8 + 4 + len(m.payload)
}

// The control kinds below frame into the process scratch (Process.sendBuf)
// too: every send site hands the packet to Send for every destination before
// anything it calls can frame another.

func appendNak(b []byte, m *msgNak) []byte {
	b = appendHead(b, m.size(), kindNak, m.group)
	b = appendViewID(b, m.view)
	b = wire.AppendString(b, string(m.sender))
	b = wire.AppendU64(b, m.from)
	return wire.AppendU64(b, m.to)
}

func (m *msgNak) size() int {
	return 1 + strSize(m.group) + coordSize(m.view.Coord) + strSize(string(m.sender)) + 8 + 8
}

// appendAckVec frames the periodic ack gossip into caller scratch: it runs
// hot enough that a fresh packet buffer per tick shows up in profiles.
func appendAckVec(b []byte, m *msgAckVec) []byte {
	b = appendHead(b, m.size(), kindAckVec, m.group)
	b = appendViewID(b, m.view)
	return appendVec(b, m.delivered)
}

func (m *msgAckVec) size() int {
	return 1 + strSize(m.group) + coordSize(m.view.Coord) + m.delivered.size()
}

// appendPresence frames the periodic presence announcement and its relay.
func appendPresence(b []byte, m *msgPresence) []byte {
	b = appendHead(b, m.size(), kindPresence, m.group)
	b = appendViewID(b, m.view)
	return appendIDs(b, m.members)
}

func (m *msgPresence) size() int {
	return 1 + strSize(m.group) + coordSize(m.view.Coord) + idsSize(m.members)
}

func appendPropose(b []byte, m *msgPropose) []byte {
	b = appendHead(b, m.size(), kindPropose, m.group)
	b = appendPID(b, m.pid)
	return appendIDs(b, m.candidates)
}

func (m *msgPropose) size() int {
	return 1 + strSize(m.group) + coordSize(m.pid.Coord) + idsSize(m.candidates)
}

func appendSyncInfo(b []byte, m *msgSyncInfo) []byte {
	b = appendHead(b, m.size(), kindSyncInfo, m.group)
	b = appendPID(b, m.pid)
	b = appendViewID(b, m.oldView)
	b = appendIDs(b, m.oldMembers)
	b = wire.AppendU64(b, m.sendSeq)
	return appendVec(b, m.recvNext)
}

func (m *msgSyncInfo) size() int {
	return 1 + strSize(m.group) + coordSize(m.pid.Coord) + coordSize(m.oldView.Coord) + idsSize(m.oldMembers) + 8 + m.recvNext.size()
}

func appendCut(b []byte, m *msgCut) []byte {
	b = appendHead(b, m.size(), kindCut, m.group)
	b = appendPID(b, m.pid)
	return appendVec(b, m.targets)
}

func (m *msgCut) size() int { return 1 + strSize(m.group) + coordSize(m.pid.Coord) + m.targets.size() }

func appendCutDone(b []byte, m *msgCutDone) []byte {
	b = appendHead(b, m.size(), kindCutDone, m.group)
	return appendPID(b, m.pid)
}

func (m *msgCutDone) size() int { return 1 + strSize(m.group) + coordSize(m.pid.Coord) }

func appendInstall(b []byte, m *msgInstall) []byte {
	b = appendHead(b, m.size(), kindInstall, m.group)
	b = appendPID(b, m.pid)
	b = appendViewID(b, m.view)
	return appendIDs(b, m.members)
}

func (m *msgInstall) size() int {
	return 1 + strSize(m.group) + coordSize(m.pid.Coord) + coordSize(m.view.Coord) + idsSize(m.members)
}

// appendLeave frames into a packet of its own: Leave sends after releasing
// p.mu, so it cannot borrow the process scratch.
func appendLeave(b []byte, m *msgLeave) []byte {
	return appendHead(b, m.size(), kindLeave, m.group)
}

func (m *msgLeave) size() int { return 1 + strSize(m.group) }
