package gcs

import "repro/internal/wire"

// Causal multicast — the third Transis delivery service, between FIFO and
// agreed: if a member multicasts m2 after delivering m1, then every member
// delivers m1 before m2 (potential causality, Lamport's happened-before).
//
// Each causal message carries the sender's delivery vector (its per-sender
// delivered counts at send time, within the current view). A receiver
// holds the message until its own vector dominates: for every view member
// q other than the sender, delivered[q] ≥ V[q]. The sender's own FIFO
// position is enforced by the sequence numbers of the reliable layer.
//
// Causality is scoped to a view, like the FIFO guarantee: the view-change
// flush delivers a common cut, and any causal predecessor of an in-cut
// message is itself in the cut (the sender's delivered counts at send time
// are bounded by every reporter's counts at the freeze), so the causal
// drain in the flush terminates.
type causalEnvelope struct {
	vector vec
	body   []byte
}

// MulticastCausal reliably multicasts payload with causal delivery.
func (m *Member) MulticastCausal(payload []byte) error {
	body := append([]byte(nil), payload...)
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return ErrClosed
	}
	data := wrapCausal(vec{m.view.Members, m.ms.recvNext}, body)
	if m.status != statusNormal {
		m.sendQueue = append(m.sendQueue, data)
		m.p.mu.Unlock()
		return nil
	}
	var cb callbacks
	m.multicastWrappedLocked(data, &cb)
	m.p.mu.Unlock()
	cb.run()
	return nil
}

// wrapCausal frames a causal payload: tag, vector, body.
func wrapCausal(vector vec, body []byte) []byte {
	out := make([]byte, 0, 16+len(body)+16*len(vector.ids))
	out = wire.AppendU8(out, payloadCausal)
	out = appendVec(out, vector)
	return append(out, body...)
}

// parseCausal decodes a causal frame (without the leading tag byte).
func parseCausal(data []byte) (causalEnvelope, bool) {
	r := wire.NewReader(data)
	var env causalEnvelope
	for n := int(r.U16()); n > 0 && r.Err() == nil; n-- {
		env.vector.ids = append(env.vector.ids, ProcessID(r.String()))
		env.vector.vals = append(env.vector.vals, r.U64())
	}
	env.body = r.Rest()
	return env, r.Err() == nil
}

// causalReadyLocked reports whether the in-order head message data from
// sender rank s may be delivered now: non-causal payloads always may; causal
// ones wait until this member's delivery vector dominates the message's.
// Caller holds p.mu.
func (m *Member) causalReadyLocked(s int, data []byte) bool {
	if len(data) == 0 || data[0] != payloadCausal {
		return true
	}
	env, ok := parseCausal(data[1:])
	if !ok {
		return true // malformed: deliver and let dispatch drop it
	}
	// The sender's own stream is ordered by seq already.
	ready := true
	env.vector.each(m.view.Members, func(q int, needed uint64) {
		ready = ready && (q == s || m.ms.recvNext[q] >= needed)
	})
	return ready
}
