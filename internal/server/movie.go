package server

import (
	"slices"
	"strings"
	"time"

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

	// views holds the installed views not yet handled, oldest first: the
	// group hands each one over mid-install, and Server.later runs movieViews
	// once per view. announces holds the records announceLocked shares, in
	// the same way through movieAnnounce. Both guarded by srv.mu.
	views     []gcs.View
	announces []wire.ClientRecord

	// clients is the knowledge table: the latest ClientRecord heard for
	// each client of this movie — including this server's own clients as
	// of the last periodic sync (deliberately not fresher: takeover
	// resumes from "the offset ... last heard", §5.2).
	clients map[string]wire.ClientRecord

	ex exchange

	syncTask clock.Periodic

	// recScratch and syncState are the state message's reusable record
	// snapshot and message scratch, guarded by srv.mu: the half-second sync
	// fills them with this server's records, a view change with the whole
	// knowledge table, an announcement with one record, and none allocates
	// a slice or a message once warm.
	recScratch []wire.ClientRecord
	syncState  wire.ClientState

	// syncBuf is the state message's reusable encode buffer, guarded by
	// srv.mu. A sender takes it out of the struct while it multicasts with
	// srv.mu released (Multicast copies the payload before returning) and
	// puts it back afterwards, so a concurrent sender encodes into a buffer of
	// its own rather than into bytes still being read.
	syncBuf []byte
}

// exchange is the knowledge exchange of the view being installed (§5.2):
// redistribution waits until every member's exchange message, or the
// timeout, arrives. heard and newcomer are indexed by rank in the view's
// sorted Members, and every view re-slices them, as every deal re-slices
// clientIDs.
type exchange struct {
	seq       uint64 // the pending view's Seq; 0 once it is dealt
	heard     []bool
	newcomer  []bool // the member said it is a newcomer
	clientIDs []string

	// The timer runs movieState.exchangeTimedOut. due is when the pending
	// exchange times out: set before every arm, it tells the callback of the
	// current arm from one a re-arm or deal came too late to stop (on a Real
	// clock a fired timer's callback may still be waiting for the lock).
	due   time.Time
	timer clock.Timer
}

// The movieState as the Runner of each of its callbacks.
type (
	movieSync     movieState // the state-sync beat: syncTick
	movieViews    movieState // a queued view: nextView
	movieAnnounce movieState // a queued announcement: nextAnnounce
	exchangeTimer movieState // the exchange timeout: exchangeTimedOut
)

func (r *movieSync) Run()     { (*movieState)(r).syncTick() }
func (r *movieViews) Run()    { (*movieState)(r).nextView() }
func (r *movieAnnounce) Run() { (*movieState)(r).nextAnnounce() }
func (r *exchangeTimer) Run() { (*movieState)(r).exchangeTimedOut() }

// slot is self's place in the deal order: the newcomers first, then the
// other members, each part in ID order. It is -1 if self is not a member.
func (ex *exchange) slot(members []gcs.ProcessID, self gcs.ProcessID) int {
	r, ok := slices.BinarySearch(members, self)
	if !ok {
		return -1
	}
	slot := 0
	for i := range members {
		if ex.newcomer[i] && !ex.newcomer[r] || ex.newcomer[i] == ex.newcomer[r] && i < r {
			slot++
		}
	}
	return slot
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
	ms.announces = append(ms.announces, rec)
	s.later((*movieAnnounce)(ms))
}

// nextAnnounce multicasts the oldest queued announcement.
func (ms *movieState) nextAnnounce() {
	s := ms.srv
	s.mu.Lock()
	rec := ms.announces[0]
	ms.announces = slices.Delete(ms.announces, 0, 1)
	if s.closed {
		s.mu.Unlock()
		return
	}
	ms.recScratch = append(ms.recScratch[:0], rec)
	ms.syncState = wire.ClientState{Server: s.cfg.ID, Clients: ms.recScratch}
	ms.multicastStateAndUnlock()
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
	if msg.ViewSeq == 0 || msg.ViewSeq != ms.ex.seq {
		return
	}
	if r, ok := slices.BinarySearch(ms.view.Members, from); ok {
		ms.ex.heard[r] = true
		ms.ex.newcomer[r] = ms.ex.newcomer[r] || msg.Newcomer
	}
	if !slices.Contains(ms.ex.heard, false) {
		ms.redistributeLocked()
	}
}

// resolveDuplicateLocked is the anti-entropy safety net: if a peer's sync
// shows it actively serving a client this server also serves — possible
// after failure-detector flaps produce divergent redistributions — exactly
// one of the two must yield. The higher-ID claimant releases; the lower
// keeps streaming, so the client is never orphaned. Caller holds srv.mu.
func (ms *movieState) resolveDuplicateLocked(from gcs.ProcessID, rec wire.ClientRecord) {
	if rec.Departed || ms.ex.seq != 0 {
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

// queueView is the movie group's OnView: it queues the view and schedules
// its handling off the group's install.
func (ms *movieState) queueView(v gcs.View) {
	s := ms.srv
	s.mu.Lock()
	ms.views = append(ms.views, v)
	s.mu.Unlock()
	s.later((*movieViews)(ms))
}

// nextView handles the oldest queued view. It takes the view and handles it
// in one hold of srv.mu, so views are handled in the order they were queued
// even when two of these callbacks run at once.
func (ms *movieState) nextView() {
	ms.srv.mu.Lock()
	v := ms.views[0]
	ms.views = slices.Delete(ms.views, 0, 1)
	ms.onViewAndUnlock(v)
}

// onViewAndUnlock handles a movie-group membership change: start the
// knowledge exchange that precedes redistribution. Caller holds srv.mu, which
// is released.
func (ms *movieState) onViewAndUnlock(v gcs.View) {
	s := ms.srv
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
	n := len(v.Members)
	ms.ex.seq = v.ID.Seq
	ms.ex.heard = append(ms.ex.heard[:0], make([]bool, n)...)
	ms.ex.newcomer = append(ms.ex.newcomer[:0], make([]bool, n)...)
	// The coming redistribution settles ownership; stale conflict
	// evidence must not linger past it.
	for _, sess := range s.sessions {
		if sess.movie.ID() == ms.movie.ID() {
			sess.conflicts = nil
		}
	}

	if len(v.Members) == 1 {
		// Alone: no exchange needed.
		ms.redistributeLocked()
		s.mu.Unlock()
		return
	}

	ms.ownRecordsLocked() // this server's sessions, into the table
	// The exchange shares the full knowledge table, so a joiner learns
	// about every client from any single member. The own records were
	// merged, so their scratch takes the table.
	all := ms.recScratch[:0]
	for _, rec := range ms.clients {
		all = append(all, rec)
	}
	slices.SortFunc(all, byClientID)
	ms.recScratch = all
	ms.syncState = wire.ClientState{
		Server:   s.cfg.ID,
		Clients:  all,
		ViewSeq:  v.ID.Seq,
		Newcomer: newcomer,
	}
	timeout := 2 * s.cfg.SyncInterval
	ms.ex.due = s.cfg.Clock.Now().Add(timeout)
	ms.ex.timer = clock.Rearm(s.cfg.Clock, ms.ex.timer, timeout, (*exchangeTimer)(ms))
	ms.multicastStateAndUnlock()
}

// exchangeTimedOut deals with whoever answered: a silent member is likely
// dead, and the next view change will rebalance again.
func (ms *movieState) exchangeTimedOut() {
	s := ms.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || ms.ex.seq == 0 || s.cfg.Clock.Now().Before(ms.ex.due) {
		return
	}
	ms.redistributeLocked()
}

// redistributeLocked deterministically re-deals every known client of this
// movie across the current view and acts on the result: taking over clients
// dealt here and releasing clients dealt elsewhere. After one sort of the
// client IDs, client i goes to the member in slot i % len(Members), so every
// member derives the same deal from the exchanged knowledge without further
// agreement (§5.2: each server "deterministically decides which clients it
// now has to serve"). Caller holds srv.mu.
func (ms *movieState) redistributeLocked() {
	s := ms.srv
	ms.ex.seq = 0
	if ms.ex.timer != nil {
		ms.ex.timer.Stop()
	}

	clientIDs := ms.ex.clientIDs[:0]
	for id, rec := range ms.clients {
		if rec.Leased {
			// Leased clients re-attach by re-anycasting their Open when
			// their server goes silent; dealing them here would start a
			// stream the client never asked this server for.
			continue
		}
		clientIDs = append(clientIDs, id)
	}
	// Apply in client-ID order: takeovers start sessions (timers, packets)
	// whose relative order must be a pure function of the inputs for
	// seed-reproducible runs.
	slices.Sort(clientIDs)
	ms.ex.clientIDs = clientIDs
	slot := ms.ex.slot(ms.view.Members, gcs.ProcessID(s.cfg.ID))
	for i, id := range clientIDs {
		dealt := slot >= 0 && i%len(ms.view.Members) == slot
		sess := s.sessions[id]
		mine := sess != nil && !sess.closed && sess.movie.ID() == ms.movie.ID()
		switch {
		case dealt && mine && (sess.lapsed || !sess.ready):
			// Kept, but its position may be stale: the client is away, or
			// came back with no deal since. A peer that served the client
			// after this server's last contact knows where it is. A deal
			// that sees the client back settles the lapse.
			if rec := ms.clients[id]; rec.SentAt > sess.lastContact {
				sess.rec.Offset, sess.rec.Paused = rec.Offset, rec.Paused
				sess.atEnd = int(rec.Offset) >= ms.movie.TotalFrames()
			}
			sess.lapsed = sess.lapsed && !sess.ready
		case dealt && !mine:
			rec := ms.clients[id]
			s.startSessionLocked(rec, ms.movie, true)
			s.stats.Takeovers++
			s.cfg.Obs.Emit(obs.ServerTakeover, id, ms.movie.ID(), 0, 0)
		case !dealt && mine:
			s.dropSessionLocked(sess)
			s.stats.Releases++
		}
	}
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
