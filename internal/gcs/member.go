package gcs

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

type memberStatus int

const (
	statusNormal memberStatus = iota + 1
	statusFlushing
)

// Member is one process's membership in one group: the handle returned by
// Process.Join. All exported methods are safe for concurrent use.
type Member struct {
	p        *Process
	group    string
	handlers Handlers
	contacts []ProcessID

	active  bool
	leaving bool

	view View
	ms   mcastState

	status memberStatus
	curPID proposalID // highest proposal followed so far

	prop *proposal // own while I coordinate a view change, else nil
	own  *proposal // the storage every attempt I coordinate reuses

	// Participant-side flush state.
	flushOldView    View        // the view whose messages are being flushed
	flushCandidates []ProcessID // candidate set of the followed proposal (a copy)
	haveCut         bool        // ms.cut holds the followed proposal's targets
	sentCutDone     bool
	flushHeard      time.Time // last flush-protocol activity, for the watchdog
	sendQueue       [][]byte  // multicasts issued while flushing

	// foreign holds processes known to be outside the view (joiners,
	// members of merged-away partitions) with an expiry deadline. It, like
	// departed and future, is made by its first write: most members never
	// see a joiner, a leave or an early multicast.
	foreign map[ProcessID]time.Time

	// departed holds members that announced a graceful leave.
	departed map[ProcessID]bool

	// Divergence detection: ack vectors carrying a different ViewID from
	// a process we consider a member reveal that the group split without
	// a partition (e.g. a lost install). Three consecutive mismatches
	// (longer than normal install skew) force a reconciling view change.
	divergeCount map[ProcessID]int
	forceChange  bool

	// future buffers multicasts tagged with views not yet installed here.
	future map[ViewID][]*msgMcast

	// Agreed-multicast state (see agreed.go). Unlike the per-view FIFO
	// state, this survives view changes.
	agreedSendSeq   uint64
	agreedPending   map[uint64][]byte               // my unacked agreed sends
	agreedForwarded map[ProcessID]map[uint64]bool   // sequencer-side dedup
	agreedNext      map[ProcessID]uint64            // delivery cursor per sender
	agreedParked    map[ProcessID]map[uint64][]byte // out-of-order agreed

	debounce   clock.Timer
	debounced  func() // proposeDebounced, bound once
	leaveTimer clock.Timer

	// idBuf is changeNeededLocked's desired membership, guarded by p.mu.
	idBuf []ProcessID
}

// held is one multicast of the current view that this member still has.
type held struct {
	seq  uint64
	data []byte
}

// mcastState is the per-view reliable-FIFO multicast machinery. A view's
// members are a sorted list, so all of it is indexed by a member's rank in
// that list and sized once, at install; a Member owns one and reuses its
// storage from view to view.
type mcastState struct {
	n, self  int      // members in the view, and my own rank among them
	sendSeq  uint64   // next sequence number I assign
	recvNext []uint64 // next seq to deliver, by sender rank
	cut      []uint64 // delivery targets of the flush (see Member.haveCut)

	// peerAck[j*n+s] is the delivered count for sender s that member j last
	// gossiped. A member not heard from yet has a row of zeros: nothing is
	// stable. In a one-member view no one gossips, and peerAck[0] is instead
	// what the member had delivered by its previous ack beat: what it may
	// drop at the next one (see ackTick). That one-beat lag keeps a buffer
	// from being recycled while a queued delivery callback may alias it.
	peerAck []uint64

	// msgs[s] holds sender s's multicasts sorted by seq: those below
	// recvNext[s] are delivered but not yet stable (kept for retransmission
	// and flush recovery), those at or above it are parked — out of order or
	// frozen by a flush. A sorted list, not a window indexed by seq-recvNext:
	// a forged far-future sequence number costs one entry.
	msgs [][]held

	buf []uint64 // backs the three rank-indexed slices above
}

// reset sizes the state for a freshly installed view, reusing the previous
// view's storage when it is large enough.
func (ms *mcastState) reset(v View, self ProcessID) {
	n := len(v.Members)
	ms.self, _ = v.rank(self)
	for s, l := range ms.msgs {
		clear(l)
		ms.msgs[s] = l[:0]
	}
	if need := 2*n + n*n; cap(ms.buf) < need {
		ms.buf = make([]uint64, need)
	} else {
		ms.buf = ms.buf[:need]
		clear(ms.buf)
	}
	if cap(ms.msgs) < n {
		ms.msgs = make([][]held, n)
	}
	ms.msgs = ms.msgs[:n]
	ms.n, ms.sendSeq = n, 0
	ms.recvNext, ms.cut, ms.peerAck = ms.buf[:n], ms.buf[n:2*n], ms.buf[2*n:]
}

// find returns where seq is, or would be inserted, in a seq-sorted list.
func find(l []held, seq uint64) (int, bool) {
	return slices.BinarySearchFunc(l, seq, func(h held, seq uint64) int { return cmp.Compare(h.seq, seq) })
}

// head returns the parked message at sender rank s's delivery cursor.
func (ms *mcastState) head(s int) ([]byte, bool) {
	l := ms.msgs[s]
	if i, ok := find(l, ms.recvNext[s]); ok {
		return l[i].data, true
	}
	return nil, false
}

// park files (seq, data) in sender rank s's list unless that seq is held.
func (ms *mcastState) park(s int, seq uint64, data []byte) {
	if i, dup := find(ms.msgs[s], seq); !dup {
		ms.msgs[s] = slices.Insert(ms.msgs[s], i, held{seq, data})
	}
}

func newMember(p *Process, group string, h Handlers, contacts []ProcessID) *Member {
	m := &Member{
		p:        p,
		group:    group,
		handlers: h,
		contacts: sortedIDs(contacts),
		active:   true,
		status:   statusNormal,
	}
	m.debounced = m.proposeDebounced
	return m
}

// installSingletonLocked installs the initial one-member view at Join time.
// Caller holds p.mu.
func (m *Member) installSingletonLocked(cb *callbacks) {
	m.view = View{
		Group:   m.group,
		ID:      ViewID{Seq: 1, Coord: m.p.id},
		Members: []ProcessID{m.p.id},
	}
	m.ms.reset(m.view, m.p.id)
	m.notifyViewLocked(cb)
	// Announce immediately; the periodic presence task keeps retrying.
	m.sendPresenceLocked()
}

// View returns the currently installed view.
func (m *Member) View() View {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	return m.view
}

// Multicast reliably FIFO-multicasts payload to the group's current view,
// including this member itself. During a view change the message is queued
// and sent in the next view.
func (m *Member) Multicast(payload []byte) error {
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return ErrClosed
	}
	// Wrap into a pooled buffer (recycled at stability GC) rather than
	// wrapPlain's fresh allocation: every multicast send passes here.
	data := append(append(m.p.getBufLocked(len(payload)+1), payloadPlain), payload...)
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

// multicastWrappedLocked assigns the next sequence number, transmits to
// peers and self-delivers in FIFO position. data carries the internal
// payload framing (see agreed.go). Caller holds p.mu.
func (m *Member) multicastWrappedLocked(data []byte, cb *callbacks) {
	seq := m.ms.sendSeq
	m.ms.sendSeq++
	// Encode into the process scratch: Send copies, and the nested dispatch
	// below (which can re-enter this function through the agreed-forward
	// path) only runs after the send loop has fully consumed pkt.
	pkt := appendMcast(m.p.sendBuf[:0], &msgMcast{
		group:   m.group,
		view:    m.view.ID,
		sender:  m.p.id,
		seq:     seq,
		payload: data,
	})
	m.p.sendBuf = pkt[:0]
	for _, id := range m.view.Members {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	// Self-delivery happens now, in FIFO position. The message stays held,
	// like everyone else's, until it is stable.
	m.ms.park(m.ms.self, seq, data)
	m.deliverReadyLocked(m.ms.self, cb)
}

// dispatchPayloadLocked unwraps the internal framing of a FIFO-delivered
// payload and routes it: plain payloads go to the application handler,
// agreed payloads go through the total-order machinery. Caller holds p.mu.
func (m *Member) dispatchPayloadLocked(sender ProcessID, data []byte, cb *callbacks) {
	if len(data) == 0 {
		return
	}
	switch data[0] {
	case payloadPlain:
		if h := m.handlers.OnMessage; h != nil {
			cb.addMsg(h, m.group, sender, data[1:])
		}
	case payloadAgreed:
		r := wire.NewReader(data[1:])
		orig := ProcessID(r.String())
		seq := r.U64()
		body := r.Rest()
		if r.Err() != nil {
			return
		}
		m.deliverAgreedLocked(orig, seq, body, cb)
	}
}

// Leave gracefully departs the group: peers are told, the member keeps
// serving retransmissions until the view change that excludes it completes
// (or a grace timeout elapses), and then deactivates.
func (m *Member) Leave() error {
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return ErrClosed
	}
	if m.leaving {
		m.p.mu.Unlock()
		return nil
	}
	m.leaving = true
	pkt := appendLeave(nil, &msgLeave{group: m.group})
	peers := make([]ProcessID, 0, len(m.view.Members))
	for _, id := range m.view.Members {
		if id != m.p.id {
			peers = append(peers, id)
		}
	}
	if len(peers) == 0 {
		m.deactivateLocked()
		m.p.mu.Unlock()
		return nil
	}
	grace := suspectTimeout + 4*proposalTimeout
	m.leaveTimer = m.p.cfg.Clock.AfterFunc(grace, func() {
		m.p.mu.Lock()
		m.deactivateLocked()
		m.p.mu.Unlock()
	})
	m.p.mu.Unlock()
	for _, id := range peers {
		_ = m.p.cfg.Endpoint.Send(id, pkt)
	}
	return nil
}

// deactivateLocked stops the membership entirely. Caller holds p.mu.
func (m *Member) deactivateLocked() {
	if !m.active {
		return
	}
	m.active = false
	if m.debounce != nil {
		m.debounce.Stop()
	}
	if m.leaveTimer != nil {
		m.leaveTimer.Stop()
	}
	m.standDownLocked()
	if i, ok := m.p.groupIndexLocked(m.group); ok && m.p.members[i] == m {
		m.p.members = slices.Delete(m.p.members, i, i+1)
	}
}

// notifyViewLocked queues the OnView callback. The view's member list is
// never modified, so the callback shares it.
func (m *Member) notifyViewLocked(cb *callbacks) {
	if h := m.handlers.OnView; h != nil {
		cb.addView(h, m.view)
	}
}

// onMessageLocked dispatches a group-scoped message. Caller holds p.mu.
func (m *Member) onMessageLocked(from ProcessID, msg any, cb *callbacks) {
	switch msg := msg.(type) {
	case *msgMcast:
		m.onMcastLocked(msg, cb)
	case *msgNak:
		m.onNakLocked(from, msg)
	case *msgAckVec:
		m.onAckVecLocked(from, msg)
	case *msgPresence:
		m.onPresenceLocked(from, msg)
	case *msgLeave:
		m.onLeaveLocked(from)
	case *msgAgreedReq:
		m.onAgreedReqLocked(from, msg, cb)
	case *msgPropose:
		m.onProposeLocked(msg, cb)
	case *msgSyncInfo:
		m.onSyncInfoLocked(from, msg, cb)
	case *msgCut:
		m.onCutLocked(msg, cb)
	case *msgCutDone:
		m.onCutDoneLocked(from, msg, cb)
	case *msgInstall:
		m.onInstallLocked(msg, cb)
	}
}

// maxFutureViews and maxFutureMcasts bound what a member buffers for views it
// has not installed: a view ID is the sender's to choose. No run of the repo
// holds more than one such view (TestHostileFutureViewsAreBounded); a message
// refused here is a loss NAKs repair after the install, never an eviction.
const maxFutureViews, maxFutureMcasts = 4, 4096

// onMcastLocked handles an inbound multicast or retransmission.
func (m *Member) onMcastLocked(msg *msgMcast, cb *callbacks) {
	// Scope the message to a view.
	switch {
	case m.status == statusNormal && msg.view == m.view.ID:
		m.acceptMcastLocked(msg, true /* deliver */, cb)
	case m.status == statusFlushing && msg.view == m.flushOldView.ID:
		// Frozen: park the message; the cut decides what gets delivered.
		m.acceptMcastLocked(msg, false, cb)
		m.drainTowardCutLocked(cb)
	case msg.view.Seq > m.view.ID.Seq:
		// A peer already installed a later view; hold the message until
		// our own install catches up.
		early, held := m.future[msg.view]
		if len(early) < maxFutureMcasts && (held || len(m.future) < maxFutureViews) {
			cp := *msg
			cp.payload = append([]byte(nil), msg.payload...)
			if m.future == nil {
				m.future = make(map[ViewID][]*msgMcast)
			}
			m.future[msg.view] = append(early, &cp)
		}
	default:
		// Stale view; drop.
	}
}

// acceptMcastLocked files one multicast into the FIFO machinery. When
// deliver is true, the sender's stream is delivered as far as it is now
// contiguous.
func (m *Member) acceptMcastLocked(msg *msgMcast, deliver bool, cb *callbacks) {
	// m.view is also the view being flushed: it changes only at install.
	s, ok := m.view.rank(msg.sender)
	if !ok || msg.seq < m.ms.recvNext[s] {
		return // stranger, or duplicate of something delivered
	}
	if _, dup := find(m.ms.msgs[s], msg.seq); dup {
		return // a retransmission of something already parked
	}
	// The decoded payload aliases the transport's receive buffer; copy it
	// into a pooled buffer that lives until stability garbage collection.
	m.ms.park(s, msg.seq, append(m.p.getBufLocked(len(msg.payload)), msg.payload...))
	if deliver {
		m.deliverReadyLocked(s, cb)
	}
}

// deliverReadyLocked delivers sender rank s's parked messages from its
// delivery cursor up to the first gap. Nothing else gates a delivery, so in
// the normal status nothing is ever left parked at a cursor.
func (m *Member) deliverReadyLocked(s int, cb *callbacks) {
	for data, ok := m.ms.head(s); ok; data, ok = m.ms.head(s) {
		m.deliverOneLocked(s, data, cb)
	}
}

// deliverOneLocked delivers the head of sender rank s's stream; the message
// stays in msgs[s], now below the cursor, until it is stable.
func (m *Member) deliverOneLocked(s int, data []byte, cb *callbacks) {
	m.ms.recvNext[s]++
	m.dispatchPayloadLocked(m.view.Members[s], data, cb)
}

// onNakLocked serves a retransmission request from whatever this member
// still holds. NAKs are answered for the current and the flushing view.
//
// The range is two u64s off the wire, served under p.mu, so the walk is over
// what is held for that sender inside the range — never over the span named,
// which a peer far behind or a hostile datagram can make 2⁶⁴ wide.
func (m *Member) onNakLocked(from ProcessID, msg *msgNak) {
	if msg.view != m.view.ID && !(m.status == statusFlushing && msg.view == m.flushOldView.ID) {
		return
	}
	s, ok := m.view.rank(msg.sender)
	if !ok {
		return
	}
	l := m.ms.msgs[s]
	for i, _ := find(l, msg.from); i < len(l) && l[i].seq < msg.to; i++ {
		pkt := appendMcast(m.p.sendBuf[:0], &msgMcast{
			group:   m.group,
			view:    msg.view,
			sender:  msg.sender,
			seq:     l[i].seq,
			payload: l[i].data,
		})
		m.p.sendBuf = pkt[:0]
		m.p.ctr.retransmits.Inc()
		_ = m.p.cfg.Endpoint.Send(from, pkt)
	}
}

// onAckVecLocked folds a stability vector in and garbage-collects retained
// messages that every member has delivered. The vector also reveals tail
// loss: a sender delivers its own multicasts as it sends them, so its own
// entry is its send counter, and a higher value than our delivery cursor
// means messages we never saw — and, being the newest, nothing after them
// would ever trigger gap detection. NAK immediately.
func (m *Member) onAckVecLocked(from ProcessID, msg *msgAckVec) {
	if m.status != statusNormal {
		return
	}
	if msg.view != m.view.ID {
		m.onDivergentTrafficLocked(from, msg.view)
		return
	}
	j, ok := m.view.rank(from)
	if !ok {
		return
	}
	delete(m.divergeCount, from)
	// Align the vector into from's row: msg's own storage is the codec's,
	// which the next ack vector decodes into.
	n := m.ms.n
	ack := m.ms.peerAck[j*n : (j+1)*n]
	msg.delivered.alignTo(m.view.Members, ack)
	if mine, theirs := m.ms.recvNext[j], ack[j]; theirs > mine {
		nak := appendNak(m.p.sendBuf[:0], &msgNak{group: m.group, view: m.view.ID, sender: from, from: mine, to: theirs})
		m.p.sendBuf = nak[:0]
		m.p.ctr.naksSent.Inc()
		_ = m.p.cfg.Endpoint.Send(from, nak)
	}
	m.gcStableLocked()
}

// gcStableLocked drops the delivered messages every member has delivered too.
func (m *Member) gcStableLocked() {
	n := m.ms.n
	for s, l := range m.ms.msgs {
		stable := m.ms.recvNext[s]
		if len(l) == 0 || l[0].seq >= stable {
			continue // nothing delivered is held for this sender
		}
		for j := 0; j < n; j++ {
			if j != m.ms.self {
				stable = min(stable, m.ms.peerAck[j*n+s])
			}
		}
		m.dropStableLocked(s, stable)
	}
}

// dropStableLocked drops sender rank s's messages below stable, which every
// member has delivered.
func (m *Member) dropStableLocked(s int, stable uint64) {
	l := m.ms.msgs[s]
	k, _ := find(l, stable)
	for _, h := range l[:k] {
		// Stability means every member delivered it: handler
		// callbacks have fired and no NAK can ask for it again,
		// so plain payload buffers are safe to recycle. Agreed
		// payloads are excluded: deliverAgreedLocked may park
		// their bodies, which alias the carrier buffer, in
		// holdback state that outlives its stability.
		if len(h.data) > 0 && h.data[0] == payloadPlain {
			m.p.putBufLocked(h.data)
		}
	}
	rest := copy(l, l[k:])
	clear(l[rest:])
	m.ms.msgs[s] = l[:rest]
}

// onPresenceLocked learns about processes outside the view — joiners and
// members of other partitions — and steers them to the coordinator.
func (m *Member) onPresenceLocked(from ProcessID, msg *msgPresence) {
	if m.leaving {
		return
	}
	// Presence from a process we already count as a member, but living in
	// a different view, is the asymmetric-split signature (it does not
	// count us as a member, or a lost install stranded one side).
	if m.view.Includes(from) && msg.view != m.view.ID && m.status == statusNormal {
		m.onDivergentTrafficLocked(from, msg.view)
	}
	expiry := m.p.cfg.Clock.Now().Add(2 * suspectTimeout)
	note := func(id ProcessID) {
		if id != m.p.id && !m.view.Includes(id) {
			m.markForeignLocked(id, expiry)
		}
	}
	note(from)
	for _, id := range msg.members {
		note(id)
	}
	if len(m.foreign) == 0 {
		return
	}
	if m.isActingCoordinatorLocked() {
		m.scheduleProposalLocked()
	} else {
		// Relay on every presence (they are periodic and cheap) so the
		// coordinator learns even if earlier relays were lost.
		coord := m.actingCoordinatorLocked()
		if coord != m.p.id {
			pkt := appendPresence(m.p.sendBuf[:0], &msgPresence{group: m.group, view: msg.view, members: msg.members})
			m.p.sendBuf = pkt[:0]
			_ = m.p.cfg.Endpoint.Send(coord, pkt)
		}
	}
}

// onDivergentTrafficLocked counts view-mismatched traffic from a supposed
// member; a persistent mismatch (longer than install skew) forces a
// reconciling view change at the acting coordinator.
func (m *Member) onDivergentTrafficLocked(from ProcessID, _ ViewID) {
	if m.divergeCount == nil {
		m.divergeCount = make(map[ProcessID]int)
	}
	if !m.view.Includes(from) {
		// Traffic from a non-member whose view differs: treat the sender
		// as foreign so the merge machinery picks it up.
		m.markForeignLocked(from, m.p.cfg.Clock.Now().Add(2*suspectTimeout))
		if m.isActingCoordinatorLocked() {
			m.scheduleProposalLocked()
		}
		return
	}
	m.divergeCount[from]++
	if m.divergeCount[from] < 3 {
		return
	}
	delete(m.divergeCount, from)
	m.forceChange = true
	if m.isActingCoordinatorLocked() {
		m.scheduleProposalLocked()
	}
}

// markForeignLocked records id as outside the view until expiry.
func (m *Member) markForeignLocked(id ProcessID, expiry time.Time) {
	if m.foreign == nil {
		m.foreign = make(map[ProcessID]time.Time)
	}
	m.foreign[id] = expiry
}

// onLeaveLocked records a graceful departure and triggers a view change.
func (m *Member) onLeaveLocked(from ProcessID) {
	if !m.view.Includes(from) {
		return
	}
	if m.departed == nil {
		m.departed = make(map[ProcessID]bool)
	}
	m.departed[from] = true
	if m.isActingCoordinatorLocked() {
		m.scheduleProposalLocked()
	}
}

// onSuspicionLocked reacts to the failure detector suspecting s.
func (m *Member) onSuspicionLocked(s ProcessID, cb *callbacks) {
	if !m.active || m.leaving {
		return
	}
	delete(m.foreign, s)
	relevant := m.view.Includes(s) ||
		(m.status == statusFlushing && (m.curPID.Coord == s || m.flushOldView.Includes(s)))
	if !relevant {
		return
	}
	if m.status == statusFlushing && m.curPID.Coord == s {
		// The coordinator of the in-flight proposal died; the lowest
		// unsuspected candidate takes over immediately.
		if m.isActingCoordinatorLocked() {
			m.startProposalLocked(cb)
		}
		return
	}
	if m.isActingCoordinatorLocked() {
		m.scheduleProposalLocked()
	}
}

// actingCoordinatorLocked returns the lowest unsuspected view member — the
// process responsible for proposing the next view. During a flush whose
// coordinator died, candidates of the proposal are considered instead.
func (m *Member) actingCoordinatorLocked() ProcessID {
	base := m.view.Members
	if m.status == statusFlushing && m.p.fd.isSuspectedLocked(m.curPID.Coord) {
		if m.prop != nil {
			base = m.prop.candidates
		} else {
			base = m.flushCandidates
		}
	}
	for _, id := range base {
		if id == m.p.id || !m.p.fd.isSuspectedLocked(id) {
			if !m.departed[id] {
				return id
			}
		}
	}
	return m.p.id
}

func (m *Member) isActingCoordinatorLocked() bool {
	return m.actingCoordinatorLocked() == m.p.id
}

// scheduleProposalLocked debounces proposal initiation so that a burst of
// triggers (several suspicions, a joining batch) folds into one view change.
func (m *Member) scheduleProposalLocked() {
	if m.debounce != nil || m.leaving || !m.active {
		return
	}
	m.debounce = m.p.cfg.Clock.AfterFunc(20*time.Millisecond, m.debounced)
}

// proposeDebounced starts the view change a burst of triggers asked for.
func (m *Member) proposeDebounced() {
	var cb callbacks
	m.p.mu.Lock()
	m.debounce = nil
	if m.active && !m.leaving && m.isActingCoordinatorLocked() && m.changeNeededLocked() {
		m.startProposalLocked(&cb)
	}
	m.p.mu.Unlock()
	cb.run()
}

// changeNeededLocked reports whether the desired membership differs from
// the installed view (or a flush is already underway that we must restart).
func (m *Member) changeNeededLocked() bool {
	if m.status == statusFlushing || m.forceChange {
		return true
	}
	m.idBuf = m.desiredCandidatesLocked(m.idBuf)
	return !slices.Equal(m.idBuf, m.view.Members)
}

// desiredCandidatesLocked computes the next membership into out's storage:
// current members minus suspects and leavers, plus live foreign processes.
func (m *Member) desiredCandidatesLocked(out []ProcessID) []ProcessID {
	now := m.p.cfg.Clock.Now()
	out = slices.Grow(out[:0], len(m.view.Members)+len(m.foreign))
	for _, id := range m.view.Members {
		if id != m.p.id && (m.p.fd.isSuspectedLocked(id) || m.departed[id]) {
			continue
		}
		out = append(out, id)
	}
	for id, exp := range m.foreign {
		if exp.Before(now) {
			delete(m.foreign, id)
			continue
		}
		if m.p.fd.isSuspectedLocked(id) || m.departed[id] {
			continue
		}
		out = append(out, id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ackTick gossips the delivery vector for stability.
func (m *Member) ackTick() {
	m.p.mu.Lock()
	if !m.active || m.status != statusNormal {
		m.p.mu.Unlock()
		return
	}
	if m.ms.n == 1 {
		// Alone in its view, a member hears no ack vector, so no gossip
		// makes its own multicasts stable: each beat drops what it had
		// delivered by the beat before, kept in peerAck[0].
		m.dropStableLocked(0, m.ms.peerAck[0])
		m.ms.peerAck[0] = m.ms.recvNext[0]
		m.p.mu.Unlock()
		return
	}
	// Encode straight from the live cursors into the process scratch: the
	// packet is complete (and Send copies) before the lock is released, so
	// neither the vector nor the buffer needs a defensive copy.
	pkt := appendAckVec(m.p.sendBuf[:0], &msgAckVec{
		group:     m.group,
		view:      m.view.ID,
		delivered: vec{m.view.Members, m.ms.recvNext},
	})
	m.p.sendBuf = pkt[:0]
	for _, id := range m.view.Members {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	m.p.mu.Unlock()
}

// retransTick drives NAK-based gap repair, flush progress and the flush
// watchdog.
func (m *Member) retransTick() {
	var cb callbacks
	m.p.mu.Lock()
	if !m.active {
		m.p.mu.Unlock()
		return
	}
	switch m.status {
	case statusNormal:
		m.agreedRetryLocked(&cb)
		// Ask senders to fill detected gaps.
		for s, sender := range m.view.Members {
			// Anything parked means a gap below it: ask for everything
			// from the cursor to the newest message seen.
			lo, l := m.ms.recvNext[s], m.ms.msgs[s]
			if sender == m.p.id || len(l) == 0 {
				continue
			}
			if hi := l[len(l)-1].seq + 1; hi > lo {
				pkt := appendNak(m.p.sendBuf[:0], &msgNak{group: m.group, view: m.view.ID, sender: sender, from: lo, to: hi})
				m.p.sendBuf = pkt[:0]
				m.p.ctr.naksSent.Inc()
				_ = m.p.cfg.Endpoint.Send(sender, pkt)
			}
		}
	case statusFlushing:
		m.flushTickLocked(&cb)
	}
	m.p.mu.Unlock()
	cb.run()
}

// presenceTick announces this view to contacts outside it, driving joins
// and partition re-merges.
func (m *Member) presenceTick() {
	m.p.mu.Lock()
	if m.active && !m.leaving {
		m.sendPresenceLocked()
	}
	m.p.mu.Unlock()
}

// sendPresenceLocked announces the view to contacts outside it (periodic,
// and immediately after Join). The packet is built in the process scratch
// and handed to Send under p.mu — Send copies, so that is safe.
func (m *Member) sendPresenceLocked() {
	pkt := appendPresence(m.p.sendBuf[:0], &msgPresence{group: m.group, view: m.view.ID, members: m.view.Members})
	m.p.sendBuf = pkt[:0]
	for _, id := range m.contacts {
		if id != m.p.id && !m.view.Includes(id) {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
}
