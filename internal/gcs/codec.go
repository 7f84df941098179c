package gcs

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// codec is the per-Process decode state: a string intern table (group names
// and process IDs are drawn from a small, stable universe) and one envelope
// per inbound kind, which each decode of that kind overwrites, keeping its
// slices' storage. Decoding runs under p.mu, and every handler reads its
// message during dispatch and never keeps it — multicast payloads are copied
// when parked (acceptMcastLocked) or buffered for a future view; ack vectors
// and cuts are aligned into the member's own rows (onAckVecLocked,
// onCutLocked); a presence is relayed by re-encoding it and a NAK is
// answered; a propose's candidates, a sync report and an install's members
// are copied into member storage (onProposeLocked, syncRecord.record,
// onInstallLocked); direct and anycast payloads are captured by value in
// their callback entries — so one envelope per kind serves every datagram.
type codec struct {
	interned  wire.Intern // made by the first string decoded
	heartbeat msgHeartbeat
	direct    msgDirect
	anycast   msgAnycast
	group     *groupKinds // made by the first group message decoded
}

// groupKinds are the envelopes of the group-scoped kinds. A process in no
// group — a leased viewer, of which a scale run builds thousands — never
// decodes one, so it does not carry them.
type groupKinds struct {
	mcast    msgMcast
	ack      msgAckVec
	presence msgPresence
	nak      msgNak
	propose  msgPropose
	syncInfo msgSyncInfo
	cut      msgCut
	cutDone  msgCutDone
	install  msgInstall
	leave    msgLeave
}

func (c *codec) groupLocked() *groupKinds {
	if c.group == nil {
		c.group = new(groupKinds)
	}
	return c.group
}

func (c *codec) stringLocked(r *wire.Reader) string {
	if c.interned == nil {
		c.interned = wire.Intern{}
	}
	return c.interned.Get(r.StringBytes())
}

func (c *codec) idLocked(r *wire.Reader) ProcessID {
	return ProcessID(c.stringLocked(r))
}

func (c *codec) viewIDLocked(r *wire.Reader) ViewID {
	return ViewID{Seq: r.U64(), Coord: c.idLocked(r)}
}

func (c *codec) pidLocked(r *wire.Reader) proposalID {
	return proposalID{Round: r.U64(), Coord: c.idLocked(r)}
}

// idsLocked decodes an ID list into ids' storage. The count is off the wire,
// so the reservation is capped by what the datagram can still hold.
func (c *codec) idsLocked(r *wire.Reader, ids []ProcessID) []ProcessID {
	n := int(r.U16())
	ids = slices.Grow(ids[:0], min(n, r.Remaining()/2)) // an ID is at least its u16 length
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, c.idLocked(r))
	}
	return ids
}

// vecLocked decodes a vector into v's storage, capped like idsLocked.
func (c *codec) vecLocked(r *wire.Reader, v vec) vec {
	n := int(r.U16())
	most := min(n, r.Remaining()/10) // an entry is at least a u16 length and a u64
	v.ids, v.vals = slices.Grow(v.ids[:0], most), slices.Grow(v.vals[:0], most)
	for i := 0; i < n && r.Err() == nil; i++ {
		v.ids = append(v.ids, c.idLocked(r))
		v.vals = append(v.vals, r.U64())
	}
	return v
}

// decodeLocked parses any GCS datagram into its kind's envelope (an agreed
// request excepted), which stays valid until the next decode of that kind.
// It returns an error for malformed input; callers drop such datagrams
// silently. Caller holds p.mu.
func (c *codec) decodeLocked(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	kind := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	var m any
	switch kind {
	case kindHeartbeat:
		m = &c.heartbeat
	case kindDirect:
		d := &c.direct
		d.payload = r.Bytes()
		m = d
	case kindAnycast:
		a := &c.anycast
		a.group = c.stringLocked(r)
		a.payload = r.Bytes()
		m = a
	case kindMcast:
		mc := &c.groupLocked().mcast
		mc.group = c.stringLocked(r)
		mc.view = c.viewIDLocked(r)
		mc.sender = c.idLocked(r)
		mc.seq = r.U64()
		mc.payload = r.Bytes()
		m = mc
	case kindNak:
		nk := &c.groupLocked().nak
		nk.group, nk.view, nk.sender = c.stringLocked(r), c.viewIDLocked(r), c.idLocked(r)
		nk.from, nk.to = r.U64(), r.U64()
		m = nk
	case kindAckVec:
		av := &c.groupLocked().ack
		av.group = c.stringLocked(r)
		av.view = c.viewIDLocked(r)
		av.delivered = c.vecLocked(r, av.delivered)
		m = av
	case kindPresence:
		pr := &c.groupLocked().presence
		pr.group, pr.view = c.stringLocked(r), c.viewIDLocked(r)
		pr.members = c.idsLocked(r, pr.members)
		m = pr
	case kindPropose:
		pp := &c.groupLocked().propose
		pp.group, pp.pid = c.stringLocked(r), c.pidLocked(r)
		pp.candidates = c.idsLocked(r, pp.candidates)
		m = pp
	case kindSyncInfo:
		si := &c.groupLocked().syncInfo
		si.group, si.pid, si.oldView = c.stringLocked(r), c.pidLocked(r), c.viewIDLocked(r)
		si.oldMembers = c.idsLocked(r, si.oldMembers)
		si.sendSeq = r.U64()
		si.recvNext = c.vecLocked(r, si.recvNext)
		m = si
	case kindCut:
		ct := &c.groupLocked().cut
		ct.group, ct.pid = c.stringLocked(r), c.pidLocked(r)
		ct.targets = c.vecLocked(r, ct.targets)
		m = ct
	case kindCutDone:
		cd := &c.groupLocked().cutDone
		cd.group, cd.pid = c.stringLocked(r), c.pidLocked(r)
		m = cd
	case kindInstall:
		in := &c.groupLocked().install
		in.group, in.pid, in.view = c.stringLocked(r), c.pidLocked(r), c.viewIDLocked(r)
		in.members = c.idsLocked(r, in.members)
		m = in
	case kindLeave:
		lv := &c.groupLocked().leave
		lv.group = c.stringLocked(r)
		m = lv
	case kindAgreedReq:
		m = &msgAgreedReq{group: c.stringLocked(r), seq: r.U64(), payload: r.Bytes()}
	default:
		return nil, fmt.Errorf("gcs: unknown message kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
