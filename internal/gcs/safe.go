package gcs

// Safe delivery — the fourth Transis service: a safe message is delivered
// only once every member of the current view is known to have RECEIVED it,
// so an application acting on a safe message knows no membership subset
// can exist that never saw it (Transis calls this "safe"; ISIS "stable").
//
// Receipt (not delivery) is what must be acknowledged — acknowledging
// delivery would deadlock, since everyone would hold the message waiting
// for everyone else to deliver it first. The periodic ack gossip therefore
// carries a second vector: the received-contiguous watermark (the FIFO
// prefix present in the pending/retained stores, delivered or not).
//
// A safe message at the head of a sender's FIFO stream blocks that stream,
// exactly as the semantics require: later messages from the same sender
// are ordered after it. During a view-change flush the gate is waived for
// messages inside the agreed cut — the cut itself proves that every
// surviving member received them.

// MulticastSafe reliably multicasts payload with safe delivery.
func (m *Member) MulticastSafe(payload []byte) error {
	body := append([]byte(nil), payload...)
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return ErrClosed
	}
	data := make([]byte, 0, len(body)+1)
	data = append(data, payloadSafe)
	data = append(data, body...)
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

// safeReadyLocked reports whether the in-order head message data from
// sender rank s may be delivered with respect to the safe gate. Caller holds
// p.mu.
func (m *Member) safeReadyLocked(s int, seq uint64, data []byte) bool {
	if len(data) == 0 || data[0] != payloadSafe {
		return true
	}
	if m.status == statusFlushing {
		return true // inside the cut: the flush proves universal receipt
	}
	for j := 0; j < m.ms.n; j++ {
		// Our own row is skipped: we received it — we are holding it.
		if j != m.ms.self && m.ms.peerContig[j*m.ms.n+s] <= seq {
			return false
		}
	}
	return true
}

// contigForLocked computes this member's received-contiguous watermark for
// sender rank s: the delivered prefix plus the run of consecutively parked
// messages after it. Caller holds p.mu.
func (m *Member) contigForLocked(s int) uint64 {
	next, l := m.ms.recvNext[s], m.ms.msgs[s]
	for i, _ := find(l, next); i < len(l) && l[i].seq == next; i++ {
		next++
	}
	return next
}
