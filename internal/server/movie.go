package server

import (
	"slices"
	"strings"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// movieState is this server's view of one movie group (§5.2): the group
// membership, the knowledge table of every client watching the movie
// (merged from the periodic state syncs, the record of the latest contact
// with the client winning), and the view-change machinery that exchanges
// knowledge and re-distributes the clients.
type movieState struct {
	srv    *Server
	movie  *mpeg.Movie
	member *gcs.Member

	view      gcs.View
	everMulti bool // has been in a multi-member view before

	// clients is the knowledge table: the latest ClientRecord heard for
	// each client of this movie — including this server's own clients as
	// of the last periodic sync (deliberately not fresher: takeover
	// resumes from "the offset ... last heard", §5.2).
	clients map[string]wire.ClientRecord

	// View-sync exchange state: after a view change, redistribution waits
	// until every member's knowledge message (or a timeout) arrives.
	pendingSeq    uint64
	syncFrom      map[gcs.ProcessID]bool
	newcomers     map[gcs.ProcessID]bool
	exchangeTimer clock.Timer

	syncTask clock.Periodic

	// recScratch and syncState are the state message's reusable record
	// snapshot and message scratch, guarded by srv.mu: the half-second sync
	// fills them with this server's table, an announcement with one record,
	// and neither allocates a slice or a message once warm.
	recScratch []wire.ClientRecord
	syncState  wire.ClientState

	// syncBuf is the state message's reusable encode buffer, guarded by
	// srv.mu. A sender takes it out of the struct while it multicasts with
	// srv.mu released (Multicast copies the payload before returning) and
	// puts it back afterwards, so a concurrent sender encodes into a buffer of
	// its own rather than into bytes still being read.
	syncBuf []byte
}

// syncTick is the half-second state multicast: this server's live sessions
// for the movie, refreshed into its own knowledge table and shared with
// the group — with the view-change exchange the only sender of a whole table,
// and the anti-entropy that bounds a peer's staleness at one sync period.
func (ms *movieState) syncTick() {
	s := ms.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	recs := ms.ownRecordsLocked()
	if len(recs) == 0 {
		// Nothing to report; an idle server stays silent so the sync
		// overhead is proportional to the client load, as in the paper.
		s.mu.Unlock()
		return
	}
	ms.syncState = wire.ClientState{Server: s.cfg.ID, Clients: recs}
	ms.multicastStateAndUnlock()
}

// announceLocked shares one record of this server's with the movie group now
// rather than at the next sync tick: a session that just opened (so a crash
// in its first half second does not orphan it) or the tombstone of one that
// just ended (so peers forget the client). That record alone is multicast,
// whatever the table holds. Caller holds srv.mu.
func (ms *movieState) announceLocked(rec wire.ClientRecord) {
	s := ms.srv
	rec.SentAt = s.cfg.Clock.Now().UnixMilli()
	if rec.Departed {
		delete(ms.clients, rec.ClientID)
	} else {
		ms.clients[rec.ClientID] = rec
	}
	s.later(func() {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		ms.recScratch = append(ms.recScratch[:0], rec)
		ms.syncState = wire.ClientState{Server: s.cfg.ID, Clients: ms.recScratch}
		ms.multicastStateAndUnlock()
	})
}

// multicastStateAndUnlock encodes ms.syncState into the reusable buffer,
// counts it as sync traffic — the one place that does — and multicasts it on
// the movie group. Caller holds srv.mu, which is released before the send:
// the multicast delivers to this server too, and onMovieGroupMessage takes it.
func (ms *movieState) multicastStateAndUnlock() {
	s := ms.srv
	pkt := wire.AppendMessage(ms.syncBuf[:0], &ms.syncState)
	ms.syncBuf = nil
	s.stats.SyncMessages++
	s.stats.SyncBytes += uint64(len(pkt))
	member := ms.member
	s.mu.Unlock()

	if member != nil {
		_ = member.Multicast(pkt)
	}
	s.mu.Lock()
	ms.syncBuf = pkt[:0]
	s.mu.Unlock()
}

// ownRecordsLocked snapshots the live state of this server's sessions for
// this movie into the movie's reusable scratch slice and merges it into the
// knowledge table: the snapshot is only referenced until the next sync tick
// (merged by value, encoded to a fresh packet), so reusing the backing array
// is safe. A record is dated by this server's last contact with the client:
// now for a ready session, its lastContact otherwise, so a session paused
// away from its client never out-dates the record of a peer that served the
// client meanwhile. Caller holds srv.mu.
func (ms *movieState) ownRecordsLocked() []wire.ClientRecord {
	now := ms.srv.cfg.Clock.Now().UnixMilli()
	recs := ms.recScratch[:0]
	for _, sess := range ms.srv.sessions {
		if sess.movie.ID() != ms.movie.ID() || sess.closed {
			continue
		}
		rec := sess.rec
		rec.SentAt = now
		if !sess.ready {
			rec.SentAt = sess.lastContact
		}
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, byClientID)
	for _, rec := range recs {
		ms.mergeLocked(rec)
	}
	ms.recScratch = recs
	return recs
}

// byClientID orders knowledge-table records for the wire and for replay.
func byClientID(a, b wire.ClientRecord) int { return strings.Compare(a.ClientID, b.ClientID) }

// onMessageLocked merges a member's state-sync message into the knowledge
// table and advances the view-sync exchange. Caller holds srv.mu.
func (ms *movieState) onMessageLocked(from gcs.ProcessID, msg *wire.ClientState) {
	for _, rec := range msg.Clients {
		ms.resolveDuplicateLocked(from, rec)
		ms.mergeLocked(rec)
	}
	if msg.ViewSeq != 0 && msg.ViewSeq == ms.pendingSeq && ms.syncFrom != nil {
		ms.syncFrom[from] = true
		if msg.Newcomer {
			ms.newcomers[from] = true
		}
		for _, id := range ms.view.Members {
			if !ms.syncFrom[id] {
				return
			}
		}
		ms.redistributeLocked()
	}
}

// resolveDuplicateLocked is the anti-entropy safety net: if a peer's sync
// shows it actively serving a client this server also serves — possible
// after failure-detector flaps produce divergent redistributions — exactly
// one of the two must yield. The higher-ID claimant releases; the lower
// keeps streaming, so the client is never orphaned. Caller holds srv.mu.
func (ms *movieState) resolveDuplicateLocked(from gcs.ProcessID, rec wire.ClientRecord) {
	if rec.Departed || ms.pendingSeq != 0 {
		return // no conflict, or a redistribution is about to settle ownership
	}
	sess := ms.srv.sessions[rec.ClientID]
	if sess == nil || sess.closed || sess.movie.ID() != ms.movie.ID() {
		return
	}
	if string(from) >= ms.srv.cfg.ID {
		return // the peer is the one that must yield
	}
	// First claim may be a sync the peer sent just before releasing the
	// client itself; only a repeated claim proves a real duplicate.
	if sess.conflicts == nil {
		sess.conflicts = make(map[gcs.ProcessID]bool)
	}
	if !sess.conflicts[from] {
		sess.conflicts[from] = true
		return
	}
	ms.srv.dropSessionLocked(sess)
	ms.srv.stats.Releases++
	ms.srv.cfg.Obs.Emit(obs.ServerDuplicateRelease, rec.ClientID, string(from), 0, 0)
}

// mergeLocked folds one record in, newest SentAt winning. Caller holds
// srv.mu.
func (ms *movieState) mergeLocked(rec wire.ClientRecord) {
	cur, known := ms.clients[rec.ClientID]
	if known && cur.SentAt > rec.SentAt {
		return
	}
	if rec.Departed {
		delete(ms.clients, rec.ClientID)
		return
	}
	ms.clients[rec.ClientID] = rec
}

// onView handles a movie-group membership change: start the knowledge
// exchange that precedes redistribution.
func (ms *movieState) onView(v gcs.View) {
	s := ms.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// A server is a "newcomer" if this is its first multi-member view and
	// it arrives with no client knowledge — a fresh server brought up to
	// alleviate load. Newcomers are dealt clients first in redistribution.
	newcomer := !ms.everMulti && len(ms.clients) == 0
	ms.view = v
	if len(v.Members) > 1 {
		ms.everMulti = true
	}
	ms.pendingSeq = v.ID.Seq
	ms.syncFrom = map[gcs.ProcessID]bool{}
	ms.newcomers = map[gcs.ProcessID]bool{}
	if ms.exchangeTimer != nil {
		ms.exchangeTimer.Stop()
	}
	// The coming redistribution settles ownership; stale conflict
	// evidence must not linger past it.
	for _, sess := range s.sessions {
		if sess.movie.ID() == ms.movie.ID() {
			sess.conflicts = nil
		}
	}

	if len(v.Members) == 1 {
		// Alone: no exchange needed.
		ms.syncFrom[v.Members[0]] = true
		if newcomer {
			ms.newcomers[v.Members[0]] = true
		}
		ms.redistributeLocked()
		s.mu.Unlock()
		return
	}

	ms.ownRecordsLocked() // this server's sessions, into the table
	// The exchange shares the full knowledge table, so a joiner learns
	// about every client from any single member.
	all := make([]wire.ClientRecord, 0, len(ms.clients))
	for _, rec := range ms.clients {
		all = append(all, rec)
	}
	slices.SortFunc(all, byClientID)
	ms.syncState = wire.ClientState{
		Server:   s.cfg.ID,
		Clients:  all,
		ViewSeq:  v.ID.Seq,
		Newcomer: newcomer,
	}
	seq := v.ID.Seq
	ms.exchangeTimer = s.cfg.Clock.AfterFunc(2*s.cfg.SyncInterval, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if ms.pendingSeq == seq && ms.syncFrom != nil {
			// Proceed with whoever answered; a silent member is likely
			// dead and the next view change will rebalance again.
			ms.redistributeLocked()
		}
	})
	ms.multicastStateAndUnlock()
}

// redistributeLocked deterministically re-assigns every known client of
// this movie across the current view and acts on the result: taking over
// clients assigned here and releasing clients assigned elsewhere. All
// members compute the same assignment from the exchanged knowledge.
// Caller holds srv.mu.
func (ms *movieState) redistributeLocked() {
	s := ms.srv
	ms.pendingSeq = 0
	ms.syncFrom = nil
	if ms.exchangeTimer != nil {
		ms.exchangeTimer.Stop()
		ms.exchangeTimer = nil
	}

	clientIDs := make([]string, 0, len(ms.clients))
	for id, rec := range ms.clients {
		if rec.Leased {
			// Leased clients re-attach by re-anycasting their Open when
			// their server goes silent; assigning them here would start a
			// stream the client never asked this server for.
			continue
		}
		clientIDs = append(clientIDs, id)
	}
	order := memberOrder(ms.view.Members, ms.newcomers)
	assignment := assign(clientIDs, order)

	// Apply in client-ID order, not assignment-map order: takeovers start
	// sessions (timers, packets) whose relative order must be a pure
	// function of the inputs for seed-reproducible runs.
	slices.Sort(clientIDs)
	for _, id := range clientIDs {
		owner := assignment[id]
		sess := s.sessions[id]
		mine := sess != nil && !sess.closed && sess.movie.ID() == ms.movie.ID()
		switch {
		case owner == gcs.ProcessID(s.cfg.ID) && mine && (sess.lapsed || !sess.ready):
			// Kept, but its position may be stale: the client is away, or
			// came back with no deal since. A peer that served the client
			// after this server's last contact knows where it is. A deal
			// that sees the client back settles the lapse.
			if rec := ms.clients[id]; rec.SentAt > sess.lastContact {
				sess.rec.Offset, sess.rec.Paused = rec.Offset, rec.Paused
				sess.atEnd = int(rec.Offset) >= ms.movie.TotalFrames()
			}
			sess.lapsed = sess.lapsed && !sess.ready
		case owner == gcs.ProcessID(s.cfg.ID) && !mine:
			rec := ms.clients[id]
			s.startSessionLocked(rec, ms.movie, true)
			s.stats.Takeovers++
			s.cfg.Obs.Emit(obs.ServerTakeover, id, ms.movie.ID(), 0, 0)
		case owner != gcs.ProcessID(s.cfg.ID) && mine:
			s.dropSessionLocked(sess)
			s.stats.Releases++
		}
	}
}

// memberOrder places newcomers (fresh, knowledge-less servers) first so
// they absorb load, then the remaining members; both halves sorted.
func memberOrder(members []gcs.ProcessID, newcomers map[gcs.ProcessID]bool) []gcs.ProcessID {
	fresh := make([]gcs.ProcessID, 0, len(members))
	old := make([]gcs.ProcessID, 0, len(members))
	for _, m := range members {
		if newcomers[m] {
			fresh = append(fresh, m)
		} else {
			old = append(old, m)
		}
	}
	slices.Sort(fresh)
	slices.Sort(old)
	return append(fresh, old...)
}

// assign deals the sorted clients round-robin over the member order. It is
// deterministic in its inputs, so every server derives the same assignment
// without further agreement (§5.2: each server "deterministically decides
// which clients it now has to serve").
func assign(clients []string, order []gcs.ProcessID) map[string]gcs.ProcessID {
	out := make(map[string]gcs.ProcessID, len(clients))
	if len(order) == 0 {
		return out
	}
	sorted := append([]string(nil), clients...)
	slices.Sort(sorted)
	for i, c := range sorted {
		out[c] = order[i%len(order)]
	}
	return out
}

// onMovieGroupMessage decodes and routes a movie-group multicast. The sync
// payload aliases the transport receive buffer; it is decoded (copied, with
// record strings interned) into the server's scratch and merged in this call.
func (s *Server) onMovieGroupMessage(ms *movieState, from gcs.ProcessID, payload []byte) {
	if len(payload) == 0 || wire.Kind(payload[0]) != wire.KindClientState {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || wire.DecodeClientStateInto(&s.syncIn, s.syncIntern, payload) != nil {
		return
	}
	ms.onMessageLocked(from, &s.syncIn)
}
