package gcs

import (
	"slices"

	"repro/internal/wire"
)

// Agreed (totally-ordered) multicast — the one delivery service this package
// offers alongside FIFO, for the §8 replicated counter (examples/hacounter).
// Transis also offers causal and safe delivery; nothing here needs either,
// so neither is built. Implemented with the classical sequencer pattern:
// the sender hands the message to the view coordinator, which re-multicasts
// it through its own reliable FIFO stream. Since every member delivers the
// coordinator's stream in the same order, all agreed messages are delivered
// in one total order at every member.
//
// Reliability across coordinator failure: the sender retains each agreed
// message until it observes its own delivery, retransmitting to whoever the
// current coordinator is; receivers deliver per-sender agreed messages in
// sequence-number order and drop duplicates, so retries and coordinator
// changes are safe. Agreed sequence state survives view changes (unlike
// the per-view FIFO state), which is what makes the retry loop exactly-once.
//
// Payload framing: every application payload that travels through the FIFO
// layer carries a one-byte tag — payloadPlain for ordinary multicasts,
// payloadAgreed for sequencer-forwarded ones (followed by the original
// sender and its agreed sequence number). The tag is internal; handlers
// always see the bare application payload.

const (
	payloadPlain  uint8 = 0
	payloadAgreed uint8 = 1
)

// wrapAgreed frames a sequencer-forwarded payload.
func wrapAgreed(sender ProcessID, seq uint64, data []byte) []byte {
	out := make([]byte, 0, len(data)+16+len(sender))
	out = wire.AppendU8(out, payloadAgreed)
	out = wire.AppendString(out, string(sender))
	out = wire.AppendU64(out, seq)
	return append(out, data...)
}

// MulticastAgreed reliably multicasts payload with agreed (total-order)
// delivery: every group member delivers all agreed messages in the same
// order. Stronger and costlier than Multicast (one extra hop through the
// view coordinator); the VoD layer does not need it, but a replicated state
// machine such as the §8 counter does.
func (m *Member) MulticastAgreed(payload []byte) error {
	data := append([]byte(nil), payload...)
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return ErrClosed
	}
	if m.agreedPending == nil {
		m.agreedPending = make(map[uint64][]byte)
	}
	seq := m.agreedSendSeq
	m.agreedSendSeq++
	m.agreedPending[seq] = data
	coord := m.view.coordinator()
	req := &msgAgreedReq{group: m.group, seq: seq, payload: data}
	if coord == m.p.id {
		var cb callbacks
		m.onAgreedReqLocked(m.p.id, req, &cb)
		m.p.mu.Unlock()
		cb.run()
		return nil
	}
	m.p.mu.Unlock()
	// Sent after the lock is released, so the packet is a buffer of its own.
	return m.p.cfg.Endpoint.Send(coord, appendAgreedReq(nil, req))
}

// onAgreedReqLocked runs at the coordinator: forward the message through
// our own FIFO stream, once per (sender, seq). Requests can arrive out of
// order (unicast under loss, retries), so dedup is per sequence number,
// not a high-water cursor.
func (m *Member) onAgreedReqLocked(from ProcessID, msg *msgAgreedReq, cb *callbacks) {
	if m.view.coordinator() != m.p.id {
		return // stale request; the sender will retry at the right coordinator
	}
	if m.agreedNext != nil && msg.seq < m.agreedNext[from] {
		return // already ordered and delivered here
	}
	if m.agreedForwarded == nil {
		m.agreedForwarded = make(map[ProcessID]map[uint64]bool)
	}
	fwd := m.agreedForwarded[from]
	if fwd == nil {
		fwd = make(map[uint64]bool)
		m.agreedForwarded[from] = fwd
	}
	if fwd[msg.seq] {
		return // already forwarded; FIFO repair finishes the delivery
	}
	fwd[msg.seq] = true
	wrapped := wrapAgreed(from, msg.seq, msg.payload)
	if m.status != statusNormal {
		m.sendQueue = append(m.sendQueue, wrapped)
		return
	}
	m.multicastWrappedLocked(wrapped, cb)
}

// deliverAgreedLocked handles an unwrapped agreed payload arriving through
// the FIFO layer: drop duplicates, park out-of-order, deliver in per-sender
// sequence order, and settle the sender's retry state.
func (m *Member) deliverAgreedLocked(orig ProcessID, seq uint64, data []byte, cb *callbacks) {
	if m.agreedNext == nil {
		m.agreedNext = make(map[ProcessID]uint64)
		m.agreedParked = make(map[ProcessID]map[uint64][]byte)
	}
	if seq < m.agreedNext[orig] {
		return // duplicate (retry already delivered)
	}
	parked := m.agreedParked[orig]
	if parked == nil {
		parked = make(map[uint64][]byte)
		m.agreedParked[orig] = parked
	}
	parked[seq] = data
	for {
		next := m.agreedNext[orig]
		d, ok := parked[next]
		if !ok {
			return
		}
		delete(parked, next)
		m.agreedNext[orig] = next + 1
		if orig == m.p.id {
			delete(m.agreedPending, next) // our retry loop can stop
		}
		if fwd := m.agreedForwarded[orig]; fwd != nil {
			delete(fwd, next) // sequencer dedup no longer needs this entry
		}
		if h := m.handlers.OnMessage; h != nil {
			cb.addMsg(h, m.group, orig, d)
		}
	}
}

// agreedRetryLocked retransmits unacknowledged agreed messages to the
// current coordinator — called from the retransmission tick.
func (m *Member) agreedRetryLocked(cb *callbacks) {
	if len(m.agreedPending) == 0 || m.status != statusNormal {
		return
	}
	coord := m.view.coordinator()
	// Retransmit in sequence order, not map order: each send perturbs the
	// simulated network's shared RNG, so ordering must be deterministic.
	seqs := make([]uint64, 0, len(m.agreedPending))
	for seq := range m.agreedPending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		req := &msgAgreedReq{group: m.group, seq: seq, payload: m.agreedPending[seq]}
		if coord == m.p.id {
			m.onAgreedReqLocked(m.p.id, req, cb)
		} else {
			pkt := appendAgreedReq(m.p.sendBuf[:0], req)
			m.p.sendBuf = pkt[:0]
			_ = m.p.cfg.Endpoint.Send(coord, pkt)
		}
	}
}
