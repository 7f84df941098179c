package gcs

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/wire"
)

// codec is the per-Process decode-side reuse state: a string intern table
// (group names and process IDs are drawn from a small, stable universe) and
// a free list for every inbound kind a handler only reads.
// Decoding runs before p.mu is taken — and concurrently under a real clock —
// so the codec carries its own lock, held across one decode. The codec never
// calls back into the Process, so the lock nests safely under p.mu.
type codec struct {
	mu       sync.Mutex
	interned wire.Intern // made by the first string decoded
	mcast    freeList[msgMcast]
	ack      freeList[msgAckVec]
	direct   freeList[msgDirect]
	anycast  freeList[msgAnycast]
	presence freeList[msgPresence]
	nak      freeList[msgNak]
	flush    *flushLists // made by the first view-change message decoded
}

// flushLists are the free lists of the view-change kinds. A process in no
// group — a leased viewer, of which a scale run builds thousands — never
// decodes one, so it does not carry them.
type flushLists struct {
	propose  freeList[msgPropose]
	syncInfo freeList[msgSyncInfo]
	cut      freeList[msgCut]
	cutDone  freeList[msgCutDone]
	install  freeList[msgInstall]
}

func (c *codec) flushLocked() *flushLists {
	if c.flush == nil {
		c.flush = new(flushLists)
	}
	return c.flush
}

// maxFreeList bounds each free list, so a burst does not pin its high-water
// mark of envelopes forever. The intern table is bounded by wire.Intern.
const maxFreeList = 64

// freeList is one pooled kind's spare envelopes, at most maxFreeList of
// them. Guarded by codec.mu.
type freeList[T any] []*T

func (l *freeList[T]) take() *T {
	if k := len(*l); k > 0 {
		m := (*l)[k-1]
		*l = (*l)[:k-1]
		return m
	}
	return new(T)
}

// put files m under the codec lock, the only lock a recycle takes.
func put[T any](c *codec, l *freeList[T], m *T) {
	c.mu.Lock()
	if len(*l) < maxFreeList {
		*l = append(*l, m)
	}
	c.mu.Unlock()
}

// recycle returns a message's envelope to the codec after dispatch. Only
// kinds whose handlers never retain the decoded form are pooled: multicast
// payloads are copied when parked (acceptMcastLocked) or buffered for a
// future view; ack vectors and cuts are aligned into the member's own rows
// (onAckVecLocked, onCutLocked); a presence is relayed by re-encoding it and
// a NAK is answered. A propose's candidates, a sync report and an install's
// members are copied into member storage (onProposeLocked,
// syncRecord.record, onInstallLocked), and a cut-done only flips a flag.
// Direct and anycast payloads were captured by value in their callback
// entries. Envelopes keep their slices' storage, which decode overwrites;
// payloads are dropped, as they alias the receive buffer.
func (c *codec) recycle(msg any) {
	switch m := msg.(type) {
	case *msgMcast:
		m.payload = nil
		put(c, &c.mcast, m)
	case *msgAckVec:
		put(c, &c.ack, m)
	case *msgDirect:
		m.payload = nil
		put(c, &c.direct, m)
	case *msgAnycast:
		m.payload = nil
		put(c, &c.anycast, m)
	case *msgPresence:
		put(c, &c.presence, m)
	case *msgNak:
		put(c, &c.nak, m)
	case *msgPropose: // decode made c.flush before it made m
		put(c, &c.flush.propose, m)
	case *msgSyncInfo:
		put(c, &c.flush.syncInfo, m)
	case *msgCut:
		put(c, &c.flush.cut, m)
	case *msgCutDone:
		put(c, &c.flush.cutDone, m)
	case *msgInstall:
		put(c, &c.flush.install, m)
	}
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

// decode parses any GCS datagram, reusing pooled structures for the hot
// kinds (see recycle). It returns an error for malformed input; callers
// drop such datagrams silently.
func (c *codec) decode(buf []byte) (any, error) {
	r := wire.NewReader(buf)
	kind := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var m any
	switch kind {
	case kindHeartbeat:
		m = &msgHeartbeat{}
	case kindDirect:
		d := c.direct.take()
		d.payload = r.Bytes()
		m = d
	case kindAnycast:
		a := c.anycast.take()
		a.group = c.stringLocked(r)
		a.payload = r.Bytes()
		m = a
	case kindMcast:
		mc := c.mcast.take()
		mc.group = c.stringLocked(r)
		mc.view = c.viewIDLocked(r)
		mc.sender = c.idLocked(r)
		mc.seq = r.U64()
		mc.payload = r.Bytes()
		m = mc
	case kindNak:
		nk := c.nak.take()
		nk.group, nk.view, nk.sender = c.stringLocked(r), c.viewIDLocked(r), c.idLocked(r)
		nk.from, nk.to = r.U64(), r.U64()
		m = nk
	case kindAckVec:
		av := c.ack.take()
		av.group = c.stringLocked(r)
		av.view = c.viewIDLocked(r)
		av.delivered = c.vecLocked(r, av.delivered)
		m = av
	case kindPresence:
		pr := c.presence.take()
		pr.group, pr.view = c.stringLocked(r), c.viewIDLocked(r)
		pr.members = c.idsLocked(r, pr.members)
		m = pr
	case kindPropose:
		pp := c.flushLocked().propose.take()
		pp.group, pp.pid = c.stringLocked(r), c.pidLocked(r)
		pp.candidates = c.idsLocked(r, pp.candidates)
		m = pp
	case kindSyncInfo:
		si := c.flushLocked().syncInfo.take()
		si.group, si.pid, si.oldView = c.stringLocked(r), c.pidLocked(r), c.viewIDLocked(r)
		si.oldMembers = c.idsLocked(r, si.oldMembers)
		si.sendSeq = r.U64()
		si.recvNext = c.vecLocked(r, si.recvNext)
		m = si
	case kindCut:
		ct := c.flushLocked().cut.take()
		ct.group, ct.pid = c.stringLocked(r), c.pidLocked(r)
		ct.targets = c.vecLocked(r, ct.targets)
		m = ct
	case kindCutDone:
		cd := c.flushLocked().cutDone.take()
		cd.group, cd.pid = c.stringLocked(r), c.pidLocked(r)
		m = cd
	case kindInstall:
		in := c.flushLocked().install.take()
		in.group, in.pid, in.view = c.stringLocked(r), c.pidLocked(r), c.viewIDLocked(r)
		in.members = c.idsLocked(r, in.members)
		m = in
	case kindLeave:
		m = &msgLeave{group: c.stringLocked(r)}
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
