package gcs

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// This file implements the view-change protocol. One member — the lowest
// unsuspected ID, the "coordinator" — drives three phases over a candidate
// membership:
//
//	PROPOSE  → every candidate freezes delivery and reports its cut
//	            (sendSeq + per-sender delivered counts)       [msgSyncInfo]
//	CUT      → coordinator broadcasts the per-sender delivery targets
//	            (max over all reports); candidates deliver and NAK-repair
//	            up to the targets, then confirm                [msgCutDone]
//	INSTALL  → coordinator assigns the new ViewID and membership; members
//	            reset multicast state and resume.
//
// The freeze–cut–repair sequence gives virtual synchrony: every member that
// survives from view V to view V' delivered exactly the same set of V's
// messages before installing V'. Competing proposals (concurrent failures,
// merges) are serialized by proposalID: candidates follow the highest
// proposal they have seen, and abandoned coordinators stand down.
//
// Every message of the flush is read during dispatch and never kept: what a
// handler needs later — the followed candidates, a report, the installed
// members — it copies into storage its Member owns, so the codec decodes the
// next message of each kind into the same envelope (see codec).

type proposalPhase int

const (
	phaseSync proposalPhase = iota + 1
	phaseCut
)

// proposal is coordinator-side state for one view-change attempt. A Member
// makes one (Member.own) the first time it coordinates and points m.prop at
// it while it does; each attempt re-slices the storage the previous one left
// behind.
type proposal struct {
	pid        proposalID
	candidates []ProcessID // sorted; syncs go by rank in it
	phase      proposalPhase
	syncs      []syncRecord
	// Delivery targets are computed PER OLD VIEW: sequence numbers are
	// meaningless across views, and a merge (or a member stranded one
	// view behind) brings candidates from several old views into one
	// proposal. Each candidate receives the cut of its own old view.
	cuts    []viewCut
	raised  []uint64 // computeCut's scratch, by rank in an old view
	retries int

	// The phase timer runs fire — Member.phaseTimedOut, bound once. due is
	// when the current phase times out: set before every arm, it tells the
	// callback of the current arm from one a re-arm or stand-down came too
	// late to stop (on a Real clock a fired timer's callback may still be
	// waiting for the lock).
	due   time.Time
	timer clock.Timer
	fire  func()
}

// syncRecord is one candidate's part in an attempt: its report, copied out
// of the message into storage the record keeps from attempt to attempt, and
// whether it has reached the cut.
type syncRecord struct {
	reported, cutDone bool
	oldView           ViewID
	oldMembers        []ProcessID
	sendSeq           uint64
	recvNext          vec
}

// record copies a report in; a repeated report replaces the earlier one.
func (rec *syncRecord) record(msg *msgSyncInfo) {
	rec.reported = true
	rec.oldView, rec.sendSeq = msg.oldView, msg.sendSeq
	rec.oldMembers = append(rec.oldMembers[:0], msg.oldMembers...)
	rec.recvNext.ids = append(rec.recvNext.ids[:0], msg.recvNext.ids...)
	rec.recvNext.vals = append(rec.recvNext.vals[:0], msg.recvNext.vals...)
}

// viewCut is the delivery targets of one old view.
type viewCut struct {
	view    ViewID
	targets vec
}

func (pr *proposal) rank(id ProcessID) (int, bool) { return slices.BinarySearch(pr.candidates, id) }

// lagging reports whether the candidate at rank r has yet to complete the
// current phase.
func (pr *proposal) lagging(r int) bool {
	if pr.phase == phaseSync {
		return !pr.syncs[r].reported
	}
	return !pr.syncs[r].cutDone
}

func (pr *proposal) anyLagging() bool {
	for r := range pr.syncs {
		if pr.lagging(r) {
			return true
		}
	}
	return false
}

// cutFor returns the targets computed for an old view.
func (pr *proposal) cutFor(view ViewID) (vec, bool) {
	for _, c := range pr.cuts {
		if c.view == view {
			return c.targets, true
		}
	}
	return vec{}, false
}

// armPhaseLocked (re)starts the phase timer.
func (m *Member) armPhaseLocked() {
	pr := m.prop
	pr.due = m.p.cfg.Clock.Now().Add(proposalTimeout)
	pr.timer = clock.Rearm(m.p.cfg.Clock, pr.timer, proposalTimeout, pr.fire)
}

// standDownLocked ends this member's coordination, if any.
func (m *Member) standDownLocked() {
	if m.prop != nil {
		m.prop.timer.Stop()
		m.prop = nil
	}
}

// startProposalLocked begins (or restarts) a view change coordinated by
// this member over the currently desired candidate set.
func (m *Member) startProposalLocked(cb *callbacks) {
	if !m.active || m.leaving {
		return
	}
	if m.own == nil {
		m.own = &proposal{fire: m.phaseTimedOut} // most members never coordinate
	}
	pr := m.own
	pr.candidates = m.desiredCandidatesLocked(pr.candidates)
	if len(pr.candidates) == 0 {
		pr.candidates = append(pr.candidates, m.p.id)
	}
	// My rounds count up from the last I proposed, or past the highest I
	// followed.
	pr.pid = proposalID{Round: max(pr.pid.Round, m.curPID.Round) + 1, Coord: m.p.id}
	pr.phase, pr.retries, pr.cuts = phaseSync, 0, pr.cuts[:0]
	pr.syncs = slices.Grow(pr.syncs[:0], len(pr.candidates))[:len(pr.candidates)]
	for r := range pr.syncs {
		pr.syncs[r].reported, pr.syncs[r].cutDone = false, false
	}
	m.prop = pr
	m.armPhaseLocked()

	msg := &msgPropose{group: m.group, pid: pr.pid, candidates: pr.candidates}
	pkt := appendPropose(m.p.sendBuf[:0], msg)
	m.p.sendBuf = pkt[:0]
	for _, id := range pr.candidates {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	m.onProposeLocked(msg, cb) // may frame into the scratch: pkt is sent
}

// phaseTimedOut fires when a phase stalls: first it retransmits to the
// laggards, then it declares them failed and restarts without them.
func (m *Member) phaseTimedOut() {
	var cb callbacks
	m.p.mu.Lock()
	pr := m.prop
	if !m.active || pr == nil || m.p.cfg.Clock.Now().Before(pr.due) || !pr.anyLagging() {
		m.p.mu.Unlock()
		return
	}
	pr.retries++
	if pr.retries <= 2 {
		// Retransmit the current phase message to the laggards.
		for r := range pr.syncs {
			if !pr.lagging(r) {
				continue
			}
			pkt := m.p.sendBuf[:0]
			switch pr.phase {
			case phaseSync:
				pkt = appendPropose(pkt, &msgPropose{group: m.group, pid: pr.pid, candidates: pr.candidates})
			case phaseCut:
				cut, _ := pr.cutFor(pr.syncs[r].oldView)
				pkt = appendCut(pkt, &msgCut{group: m.group, pid: pr.pid, targets: cut})
			}
			m.p.sendBuf = pkt[:0]
			_ = m.p.cfg.Endpoint.Send(pr.candidates[r], pkt)
		}
		m.armPhaseLocked()
	} else {
		// Give up on the laggards: suspect them so the candidate
		// computation excludes them, and restart the view change.
		for r := range pr.syncs {
			if pr.lagging(r) {
				m.p.fd.suspectLocked(pr.candidates[r])
			}
		}
		m.startProposalLocked(&cb)
	}
	m.p.mu.Unlock()
	cb.run()
}

// onProposeLocked is the participant's entry into a view change.
func (m *Member) onProposeLocked(msg *msgPropose, cb *callbacks) {
	if m.leaving {
		return
	}
	if !slices.Contains(msg.candidates, m.p.id) {
		return // we are being excluded (e.g. we announced a leave)
	}
	switch {
	case msg.pid.supersedes(m.curPID):
		m.curPID = msg.pid
		m.flushCandidates = append(m.flushCandidates[:0], msg.candidates...)
		if m.status == statusNormal {
			m.status = statusFlushing
			m.flushOldView = m.view
			m.p.ctr.flushRounds.Inc()
		}
		if m.prop != nil && m.prop.pid != msg.pid {
			m.standDownLocked() // our own proposal lost
		}
		m.haveCut = false
		m.sentCutDone = false
	case msg.pid == m.curPID:
		// Retransmitted propose; answer again below.
	default:
		return // stale proposal
	}
	m.flushHeard = m.p.cfg.Clock.Now()

	// The report is read straight from the live cursors: framed for a
	// remote coordinator, copied into its record by our own.
	info := msgSyncInfo{
		group:      m.group,
		pid:        m.curPID,
		oldView:    m.flushOldView.ID,
		oldMembers: m.flushOldView.Members,
		sendSeq:    m.ms.sendSeq,
		recvNext:   vec{m.flushOldView.Members, m.ms.recvNext},
	}
	if m.curPID.Coord == m.p.id {
		m.onSyncInfoLocked(m.p.id, &info, cb)
	} else {
		pkt := appendSyncInfo(m.p.sendBuf[:0], &info)
		m.p.sendBuf = pkt[:0]
		_ = m.p.cfg.Endpoint.Send(m.curPID.Coord, pkt)
	}
}

// onSyncInfoLocked collects candidate reports at the coordinator.
func (m *Member) onSyncInfoLocked(from ProcessID, msg *msgSyncInfo, cb *callbacks) {
	pr := m.prop
	if pr == nil || msg.pid != pr.pid || pr.phase != phaseSync {
		return
	}
	r, ok := pr.rank(from)
	if !ok {
		return
	}
	pr.syncs[r].record(msg)
	if pr.anyLagging() {
		return
	}

	// Everyone reported: compute the delivery targets, separately per old
	// view (sequence numbers do not compare across views).
	for r := range pr.syncs {
		rec := &pr.syncs[r]
		if _, done := pr.cutFor(rec.oldView); !done {
			pr.addCut(rec.oldView, rec.oldMembers)
		}
	}
	pr.phase = phaseCut
	pr.retries = 0
	m.armPhaseLocked()

	// Each cut is framed in its own iteration: the self-cut re-enters the
	// flush, which may frame into the scratch before the loop goes on.
	for r, id := range pr.candidates {
		targets, _ := pr.cutFor(pr.syncs[r].oldView)
		cut := &msgCut{group: m.group, pid: pr.pid, targets: targets}
		if id == m.p.id {
			m.onCutLocked(cut, cb)
			continue
		}
		pkt := appendCut(m.p.sendBuf[:0], cut)
		m.p.sendBuf = pkt[:0]
		_ = m.p.cfg.Endpoint.Send(id, pkt)
	}
}

// addCut appends the targets of one old view, computed into the storage an
// earlier attempt left in that slot.
func (pr *proposal) addCut(view ViewID, members []ProcessID) {
	k := len(pr.cuts)
	if k < cap(pr.cuts) {
		pr.cuts = pr.cuts[:k+1]
	} else {
		pr.cuts = append(pr.cuts, viewCut{})
	}
	c := &pr.cuts[k]
	c.view, c.targets = view, pr.computeCut(view, members, c.targets)
}

// computeCut folds the reports of the candidates that come from one old view
// into that view's delivery targets, written into cut's storage: a sender's
// target is the max of its own sendSeq (if it reported) and every same-view
// reporter's delivered count — so nothing any same-view survivor sent or
// delivered is lost. members is the old view's membership as its first
// reporter gave it.
func (pr *proposal) computeCut(view ViewID, members []ProcessID, cut vec) vec {
	if !slices.IsSorted(members) {
		members = sortedIDs(members)
	}
	targets := slices.Grow(pr.raised[:0], len(members))[:len(members)]
	clear(targets)
	pr.raised = targets
	raise := func(s int, v uint64) { targets[s] = max(targets[s], v) }
	for r := range pr.syncs {
		rec := &pr.syncs[r]
		if rec.oldView != view {
			continue
		}
		if s, ok := slices.BinarySearch(members, pr.candidates[r]); ok {
			raise(s, rec.sendSeq)
		}
		rec.recvNext.each(members, raise)
	}
	// A zero target asks for nothing, so it does not travel.
	cut.ids, cut.vals = cut.ids[:0], cut.vals[:0]
	for s, v := range targets {
		if v > 0 {
			cut.ids, cut.vals = append(cut.ids, members[s]), append(cut.vals, v)
		}
	}
	return cut
}

// onCutLocked receives the delivery targets and begins repairing toward
// them.
func (m *Member) onCutLocked(msg *msgCut, cb *callbacks) {
	if msg.pid != m.curPID || m.status != statusFlushing {
		return
	}
	msg.targets.alignTo(m.flushOldView.Members, m.ms.cut)
	m.haveCut = true
	m.flushHeard = m.p.cfg.Clock.Now()
	m.drainTowardCutLocked(cb)
}

// drainTowardCutLocked delivers parked old-view messages up to (but never
// beyond) the cut targets, then reports completion if reached.
func (m *Member) drainTowardCutLocked(cb *callbacks) {
	if m.status != statusFlushing || !m.haveCut {
		return
	}
	for s, target := range m.ms.cut {
		for m.ms.recvNext[s] < target {
			data, ok := m.ms.head(s)
			if !ok {
				break // a gap: NAK repair will progress it
			}
			m.deliverOneLocked(s, data, cb)
		}
	}
	m.tryCompleteCutLocked(cb)
}

// tryCompleteCutLocked sends CutDone once every old-view sender's target is
// reached.
func (m *Member) tryCompleteCutLocked(cb *callbacks) {
	if m.status != statusFlushing || !m.haveCut || m.sentCutDone {
		return
	}
	for s, target := range m.ms.cut {
		if m.ms.recvNext[s] < target {
			return
		}
	}
	m.sentCutDone = true
	done := &msgCutDone{group: m.group, pid: m.curPID}
	if m.curPID.Coord == m.p.id {
		m.onCutDoneLocked(m.p.id, done, cb)
	} else {
		pkt := appendCutDone(m.p.sendBuf[:0], done)
		m.p.sendBuf = pkt[:0]
		_ = m.p.cfg.Endpoint.Send(m.curPID.Coord, pkt)
	}
}

// onCutDoneLocked collects completions at the coordinator and installs the
// new view when all candidates have reached the cut.
func (m *Member) onCutDoneLocked(from ProcessID, msg *msgCutDone, cb *callbacks) {
	pr := m.prop
	if pr == nil || msg.pid != pr.pid || pr.phase != phaseCut {
		return
	}
	r, ok := pr.rank(from)
	if !ok {
		return
	}
	pr.syncs[r].cutDone = true
	if pr.anyLagging() {
		return
	}

	maxSeq := m.view.ID.Seq
	for r := range pr.syncs {
		maxSeq = max(maxSeq, pr.syncs[r].oldView.Seq)
	}
	install := &msgInstall{
		group:   m.group,
		pid:     pr.pid,
		view:    ViewID{Seq: maxSeq + 1, Coord: m.p.id},
		members: pr.candidates,
	}
	pkt := appendInstall(m.p.sendBuf[:0], install)
	m.p.sendBuf = pkt[:0]
	for _, id := range pr.candidates {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	m.onInstallLocked(install, cb) // may frame into the scratch: pkt is sent
}

// onInstallLocked commits the new view: reset multicast state, notify the
// application, release queued multicasts and replay early messages.
func (m *Member) onInstallLocked(msg *msgInstall, cb *callbacks) {
	if msg.pid != m.curPID || m.status != statusFlushing || !slices.Contains(msg.members, m.p.id) {
		return
	}
	// The member list is the one allocation an install makes: the view keeps
	// it, shared with every OnView callback and never modified, while the
	// message's list is the codec's envelope or, at the coordinator, the
	// candidate storage of its next proposal. Only hostile input is out of
	// order or repeats an ID.
	members := sortedIDs(msg.members)

	m.view = View{Group: m.group, ID: msg.view, Members: members}
	m.ms.reset(m.view, m.p.id)
	m.status = statusNormal
	m.p.ctr.viewChanges.Inc()
	m.p.cfg.Obs.Emit(obs.GCSView, m.group, string(msg.view.Coord), int64(msg.view.Seq), int64(len(members)))
	m.haveCut = false
	m.sentCutDone = false
	m.flushCandidates = m.flushCandidates[:0]
	m.flushOldView = View{}
	m.forceChange = false
	m.divergeCount = nil
	m.standDownLocked()
	for id := range m.departed {
		if !m.view.Includes(id) {
			delete(m.departed, id)
		}
	}
	for id := range m.foreign {
		if m.view.Includes(id) {
			delete(m.foreign, id)
		}
	}

	m.notifyViewLocked(cb)

	// Replay multicasts that raced ahead of our install.
	if early := m.future[msg.view]; early != nil {
		delete(m.future, msg.view)
		for _, em := range early {
			m.acceptMcastLocked(em, true, cb)
		}
	}
	for vid := range m.future {
		if vid.Seq <= msg.view.Seq {
			delete(m.future, vid)
		}
	}

	// Send what the application queued during the flush.
	queued := m.sendQueue
	m.sendQueue = nil
	for _, data := range queued {
		m.multicastWrappedLocked(data, cb)
	}

	// Conditions may have accumulated during the flush (new suspicions,
	// new joiners); the coordinator checks again.
	if m.isActingCoordinatorLocked() && m.changeNeededLocked() {
		m.scheduleProposalLocked()
	}
}

// flushTickLocked runs on the retransmission period while flushing: it
// NAK-repairs toward the cut and escalates if the coordinator went silent.
func (m *Member) flushTickLocked(cb *callbacks) {
	if m.haveCut {
		m.drainTowardCutLocked(cb)
		for s, sender := range m.flushOldView.Members {
			lo, hi := m.ms.recvNext[s], m.ms.cut[s]
			if lo >= hi {
				continue
			}
			nak := appendNak(m.p.sendBuf[:0], &msgNak{group: m.group, view: m.flushOldView.ID, sender: sender, from: lo, to: hi})
			m.p.sendBuf = nak[:0]
			for _, id := range m.flushOldView.Members {
				if id != m.p.id && !m.p.fd.isSuspectedLocked(id) {
					m.p.ctr.naksSent.Inc()
					_ = m.p.cfg.Endpoint.Send(id, nak)
				}
			}
		}
	}
	// Watchdog: if the flush stalls and its coordinator is gone, the next
	// candidate in line takes over. And as a last resort — the INSTALL
	// message travels unreliably exactly once, so a member that missed it
	// is stranded with a live, already-moved-on coordinator — ANY member
	// stuck long enough starts its own superseding proposal, which drags
	// the whole group (whatever views its members reached) into a fresh
	// common view.
	stallFor := m.p.cfg.Clock.Now().Sub(m.flushHeard)
	switch {
	case stallFor > 3*proposalTimeout && m.isActingCoordinatorLocked() && m.prop == nil:
		m.startProposalLocked(cb)
	case stallFor > 8*proposalTimeout && m.prop == nil:
		m.flushHeard = m.p.cfg.Clock.Now() // pace the escalation
		m.startProposalLocked(cb)
	}
}
