package gcs

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/wire"
)

// codec is the per-Process decode-side reuse state: a string intern table
// (group names and process IDs are drawn from a small, stable universe) and
// free lists for the hot inbound message kinds.
// Decoding runs before p.mu is taken — and concurrently under a real clock —
// so the codec carries its own lock, held across one decode. The codec never
// calls back into the Process, so the lock nests safely under p.mu.
type codec struct {
	mu          sync.Mutex
	interned    map[string]string
	freeMcast   []*msgMcast
	freeAck     []*msgAckVec
	freeDirect  []*msgDirect
	freeAnycast []*msgAnycast
}

// Bounds keep a pathological workload (say, unbounded group-name churn)
// from turning the reuse state into a leak.
const (
	maxInterned = 4096
	maxFreeList = 64
)

func (c *codec) internLocked(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.interned[string(b)]; ok { // string(b) here does not allocate
		return s
	}
	s := string(b)
	if c.interned == nil {
		c.interned = make(map[string]string)
	}
	if len(c.interned) < maxInterned {
		c.interned[s] = s
	}
	return s
}

// recycle returns a message's reusable parts to the codec after dispatch.
// Only kinds whose handlers never retain the decoded form are pooled:
// multicast payloads are copied when parked (acceptMcastLocked) or buffered
// for a future view, and ack vectors are aligned into the member's own rows
// (onAckVecLocked). Everything else — view-change traffic, NAKs — is
// cold and left to the garbage collector.
func (c *codec) recycle(msg any) {
	switch m := msg.(type) {
	case *msgMcast:
		c.mu.Lock()
		*m = msgMcast{}
		if len(c.freeMcast) < maxFreeList {
			c.freeMcast = append(c.freeMcast, m)
		}
		c.mu.Unlock()
	case *msgAckVec:
		// The struct keeps its vector's storage; decode overwrites every field.
		c.mu.Lock()
		if len(c.freeAck) < maxFreeList {
			c.freeAck = append(c.freeAck, m)
		}
		c.mu.Unlock()
	case *msgDirect:
		// The payload slice (aliasing the transport receive buffer) was
		// copied into the callback entry before dispatch released p.mu,
		// so only the envelope struct is being reused here.
		c.mu.Lock()
		*m = msgDirect{}
		if len(c.freeDirect) < maxFreeList {
			c.freeDirect = append(c.freeDirect, m)
		}
		c.mu.Unlock()
	case *msgAnycast:
		// Same contract as msgDirect: the handler entry captured group and
		// payload by value before dispatch finished, never the struct.
		c.mu.Lock()
		*m = msgAnycast{}
		if len(c.freeAnycast) < maxFreeList {
			c.freeAnycast = append(c.freeAnycast, m)
		}
		c.mu.Unlock()
	}
}

func (c *codec) stringLocked(r *wire.Reader) string {
	return c.internLocked(r.StringBytes())
}

func (c *codec) idLocked(r *wire.Reader) ProcessID {
	return ProcessID(c.internLocked(r.StringBytes()))
}

func (c *codec) viewIDLocked(r *wire.Reader) ViewID {
	return ViewID{Seq: r.U64(), Coord: c.idLocked(r)}
}

func (c *codec) pidLocked(r *wire.Reader) proposalID {
	return proposalID{Round: r.U64(), Coord: c.idLocked(r)}
}

func (c *codec) idsLocked(r *wire.Reader) []ProcessID {
	n := int(r.U16())
	if r.Err() != nil {
		return nil
	}
	ids := make([]ProcessID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, c.idLocked(r))
		if r.Err() != nil {
			return nil
		}
	}
	return ids
}

// vecLocked decodes a vector into v's storage. The count is off the wire, so
// the reservation is capped by what the datagram can still hold.
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

func (c *codec) takeMcastLocked() *msgMcast {
	if k := len(c.freeMcast); k > 0 {
		m := c.freeMcast[k-1]
		c.freeMcast = c.freeMcast[:k-1]
		return m
	}
	return new(msgMcast)
}

func (c *codec) takeDirectLocked() *msgDirect {
	if k := len(c.freeDirect); k > 0 {
		m := c.freeDirect[k-1]
		c.freeDirect = c.freeDirect[:k-1]
		return m
	}
	return new(msgDirect)
}

func (c *codec) takeAnycastLocked() *msgAnycast {
	if k := len(c.freeAnycast); k > 0 {
		m := c.freeAnycast[k-1]
		c.freeAnycast = c.freeAnycast[:k-1]
		return m
	}
	return new(msgAnycast)
}

func (c *codec) takeAckLocked() *msgAckVec {
	if k := len(c.freeAck); k > 0 {
		m := c.freeAck[k-1]
		c.freeAck = c.freeAck[:k-1]
		return m
	}
	return new(msgAckVec)
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
		d := c.takeDirectLocked()
		d.payload = r.Bytes()
		m = d
	case kindAnycast:
		a := c.takeAnycastLocked()
		a.group = c.stringLocked(r)
		a.payload = r.Bytes()
		m = a
	case kindMcast:
		mc := c.takeMcastLocked()
		mc.group = c.stringLocked(r)
		mc.view = c.viewIDLocked(r)
		mc.sender = c.idLocked(r)
		mc.seq = r.U64()
		mc.payload = r.Bytes()
		m = mc
	case kindNak:
		m = &msgNak{
			group:  c.stringLocked(r),
			view:   c.viewIDLocked(r),
			sender: c.idLocked(r),
			from:   r.U64(),
			to:     r.U64(),
		}
	case kindAckVec:
		av := c.takeAckLocked()
		av.group = c.stringLocked(r)
		av.view = c.viewIDLocked(r)
		av.delivered = c.vecLocked(r, av.delivered)
		m = av
	case kindPresence:
		m = &msgPresence{group: c.stringLocked(r), view: c.viewIDLocked(r), members: c.idsLocked(r)}
	case kindPropose:
		m = &msgPropose{group: c.stringLocked(r), pid: c.pidLocked(r), candidates: c.idsLocked(r)}
	case kindSyncInfo:
		m = &msgSyncInfo{
			group:      c.stringLocked(r),
			pid:        c.pidLocked(r),
			oldView:    c.viewIDLocked(r),
			oldMembers: c.idsLocked(r),
			sendSeq:    r.U64(),
			recvNext:   c.vecLocked(r, vec{}),
		}
	case kindCut:
		m = &msgCut{group: c.stringLocked(r), pid: c.pidLocked(r), targets: c.vecLocked(r, vec{})}
	case kindCutDone:
		m = &msgCutDone{group: c.stringLocked(r), pid: c.pidLocked(r)}
	case kindInstall:
		m = &msgInstall{group: c.stringLocked(r), pid: c.pidLocked(r), view: c.viewIDLocked(r), members: c.idsLocked(r)}
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
