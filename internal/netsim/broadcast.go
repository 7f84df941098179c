package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Batched fan-out: one send call delivering a stripe's worth of frames.
//
// A VoD server streams one movie to hundreds of leased viewers, and its
// stripe walks all of them in one clock tick. Sending the walk's frames one
// by one would still schedule a delivery event each — N heap pushes, N timer
// fires, N pooled records per beat. SendStableRefBatch collapses the common
// case into one pooled broadcast record and ONE scheduled clock event that
// fans out to every surviving destination when it fires.
//
// The determinism contract (DESIGN §13) is equivalence with a loop over
// SendStableRef in slice order, and it holds by construction: each
// destination goes through the same admitLocked as a single send — count,
// route, block, profile, fate — in slice order, and then through the same
// egress/link serialization bump, so the fate's decisions and every
// aggregate counter are identical whether a sender batches or loops.
// Destinations needing divergent treatment — a duplicate, or a jittered
// profile (per-delivery random delay) — take the single send's
// scheduleLocked inline, right where the loop would have
// scheduled them; only uniform survivors join the batch. The batch delivers
// every survivor at the latest of their individually computed transit times
// (the last slot of the beat's serialization train, sub-millisecond behind
// the per-send schedule at frame scale), which is the one observable
// difference from the loop.
//
// Payloads are caller-guaranteed immutable (the RefSender contract), so
// sharing one buffer across the whole batch needs no reference counting:
// the record only drops its aliases on recycle and nobody ever writes
// through them.

// broadcast is one in-flight batched fan-out: the surviving destinations of
// a batch send plus each one's payload alias, and the clock event's Runner.
// Records cycle through a free list under n.mu, like delivery records; dsts
// and payloads keep their capacity across uses, so a warm stripe beat
// schedules without allocating.
type broadcast struct {
	n        *Network
	from     int32
	dsts     []int32
	payloads [][]byte
	next     *broadcast
}

// newBroadcastLocked takes a broadcast record off the free list. Caller
// holds n.mu.
func (n *Network) newBroadcastLocked(from int32) *broadcast {
	b := n.freeB
	if b != nil {
		n.freeB = b.next
		b.next = nil
	} else {
		b = &broadcast{n: n}
	}
	b.from = from
	return b
}

// recycleLocked returns the record to the pool, dropping the payload
// aliases (they may point into caller-owned immutable tables) while keeping
// both slices' capacity warm. Caller holds n.mu; the record's timer must
// have fired already (or never been scheduled).
func (b *broadcast) recycleLocked() {
	n := b.n
	b.from = 0
	for i := range b.payloads {
		b.payloads[i] = nil
	}
	b.dsts = b.dsts[:0]
	b.payloads = b.payloads[:0]
	b.next = n.freeB
	n.freeB = b
}

// Run fires when the batch arrives: under one lock hold, re-check liveness
// for every destination (all at this same virtual instant, before any of the
// batch's handlers run), settle the counters, and snapshot the surviving
// (handler, payload) pairs into the network's reusable scratch; then release
// the lock once and invoke the handlers in batch order. The per-send path
// re-checks each destination in its own delivery event at this same instant,
// so the two differ only if one batch handler closes a later destination
// synchronously — no handler in this repository does, and handlers that need
// the stricter ordering can keep the per-send path.
func (b *broadcast) Run() {
	n := b.n
	n.mu.Lock()
	hs, ds := n.bcastH[:0], n.bcastD[:0]
	var dropped, bytes uint64
	for i := 0; i < len(b.dsts); i++ {
		ep := n.eps[b.dsts[i]]
		var h transport.Handler
		if ep != nil && !ep.closed {
			h = ep.handler
		}
		if h == nil {
			dropped++
			continue
		}
		bytes += uint64(len(b.payloads[i]))
		hs = append(hs, h)
		ds = append(ds, b.payloads[i])
	}
	n.dropLocked(dropped)
	n.ctrDeliv.Add(uint64(len(hs)))
	n.ctrBytes.Add(bytes)
	from := n.addrs[b.from]
	b.recycleLocked()
	n.bcastH, n.bcastD = hs, ds
	n.mu.Unlock()
	for i, h := range hs {
		h(from, ds[i])
	}
}

// SendStableRefBatch implements transport.RefSender: payloads[i] is
// transmitted to dsts[i], all under one lock acquisition and (for the
// destinations that need no divergent treatment) one scheduled delivery
// event. Drop, duplication and serialization behavior are equivalent to
// calling SendStableRef once per destination in slice order; see the
// comment at the top of this file for the exact contract. Payloads must be
// immutable for the process lifetime.
func (e *endpoint) SendStableRefBatch(dsts []transport.AddrRef, payloads [][]byte) error {
	if len(dsts) != len(payloads) {
		return fmt.Errorf("netsim: batch from %s: %d destinations but %d payloads", e.addr, len(dsts), len(payloads))
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	var firstErr error
	b := n.newBroadcastLocked(e.id)
	// Size both slices to the batch up front: a fresh record costs two
	// allocations, not a doubling ladder, and a warm one none.
	b.dsts = slices.Grow(b.dsts, len(dsts))
	b.payloads = slices.Grow(b.payloads, len(dsts))
	var maxDelay time.Duration
	for i, ref := range dsts {
		payload := payloads[i]
		if len(payload) > transport.MaxDatagram {
			if firstErr == nil {
				firstErr = fmt.Errorf("netsim: send to ref#%d: %w", ref, transport.ErrTooLarge)
			}
			continue
		}
		to := int32(ref)
		copies, err := n.admitLocked(e.id, to)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if copies == 0 {
			continue
		}
		if copies > 1 || n.def.Jitter > 0 {
			// Divergent treatment — a duplicate, or per-delivery jitter
			// draws — expands to dedicated delivery events right here,
			// exactly where the per-send loop would have scheduled them (so
			// the jitter draws stay in sequence).
			n.scheduleLocked(e.id, to, payload, true, copies)
			continue
		}
		maxDelay = max(maxDelay, n.transitTimeLocked(e.id, to, len(payload)))
		b.dsts = append(b.dsts, to)
		b.payloads = append(b.payloads, payload)
	}
	if len(b.dsts) == 0 {
		b.recycleLocked()
	} else {
		clock.Schedule(n.clk, maxDelay, b)
	}
	n.maybeSweepLocked(len(dsts))
	return firstErr
}
