package server

import (
	"time"

	"repro/internal/clock"
	"repro/internal/flowctl"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// session is one client this server is actively serving: the per-client
// transmission state of §3–§4. The server paces frames at the client's
// granted rate, adjusts the rate on flow-control requests, applies the
// emergency boost, and executes VCR operations.
//
// No callback that can fire after stopLocked captures a *session: deferred
// work holds (clientID, gen) and looks the session up, so a callback queued by
// an earlier session of the same client finds the mismatch and bails out.
//
// A session is 408 bytes on 64-bit platforms, in the 416-byte size class:
// one more word fits, and a second moves every session of the scale table
// into the 448-byte class.
type session struct {
	srv   *Server
	gen   uint64            // Server.sessionGen at start; guards deferred callbacks
	rec   wire.ClientRecord // live state; rec.Offset is the next frame to send
	movie *mpeg.Movie
	rate  *flowctl.RateController

	// packets is the movie's shared preframed-datagram table: one table per
	// movie serves every concurrent viewer, replacing the per-session frame
	// build buffers entirely.
	packets *mpeg.PacketTable

	// dst is the client address resolved once on the video channel, so
	// per-frame sends skip the address-string hash where the network has a
	// dense index.
	dst transport.Dest

	// stripe/stripePos locate a leased session's slot in its coalesced
	// pacing ticker (stripe nil for a session-group session, or while
	// detached); shedSkip makes the next stripe tick skip one beat after a
	// token shed, reproducing the dedicated timer's 2× retry spacing.
	stripe    *stripe
	stripePos int
	shedSkip  bool

	member *gcs.Member // session-group membership, set once joined
	ready  bool        // the session view includes the client; streaming may start
	lapsed bool        // a view lost the client, and no deal has seen it back
	pacing bool        // a send is scheduled
	atEnd  bool        // offset ran past the last frame
	closed bool

	thinCredit int // quality-adjustment accumulator (frames × fps units)

	// lastContact (unix ms) dates rec while the session is not ready: the
	// lapse instant, the inherited record's SentAt for a takeover, or the
	// Open for a new session. A ready session's record is dated now.
	lastContact int64

	// conflicts tracks peers that claimed this client in a state sync;
	// a second consecutive claim (≥ one sync period later, so not a
	// pre-release race) triggers duplicate resolution. Reset on view
	// changes.
	conflicts map[gcs.ProcessID]bool

	sendTimer clock.Timer
	sendOneFn func() // sess.sendOne, bound once: the pacing timer re-arms every frame
	joinFn    func() // join closure, reused by retries
	joinTimer clock.Timer
	decayTask clock.Periodic
	joinTries int

	// group and the two handler closures are built once in startSessionLocked
	// and reused by every join retry, which would otherwise rebuild them on
	// each attempt.
	group    string
	onViewFn func(gcs.View)
	onMsgFn  func(string, gcs.ProcessID, []byte)

	// fc is the reusable decode target for this client's flow-control
	// stream, guarded by srv.mu. It starts out holding the session's client
	// ID, so the keep-string decode never builds that string again.
	fc wire.FlowControl
}

// startSessionLocked creates the session and begins joining the client's
// session group. Transmission starts once the group view shows the client
// — the "two-way connection" of §3 — so the client's control multicasts
// are guaranteed to reach us from the first frame on. Caller holds srv.mu.
func (s *Server) startSessionLocked(rec wire.ClientRecord, movie *mpeg.Movie, takeover bool) *session {
	s.sessionGen++
	gen := s.sessionGen
	sess := &session{
		srv:     s,
		gen:     gen,
		rec:     rec,
		movie:   movie,
		rate:    flowctl.NewRateController(s.cfg.Flow, movie.FPS()),
		packets: movie.Packets(s.vid.Preframe()),
		dst:     s.vid.Resolve(transport.Addr(rec.ClientAddr)),
		// Resuming at a stale offset past the end means the movie ended.
		atEnd:       takeover && int(rec.Offset) >= movie.TotalFrames(),
		lastContact: rec.SentAt,
		fc:          wire.FlowControl{ClientID: rec.ClientID},
	}
	sess.rate.SetBase(int(rec.Rate))
	sess.sendOneFn = sess.sendOne
	s.sessions[rec.ClientID] = sess
	clientID := rec.ClientID
	sess.decayTask.Start(s.cfg.Clock, time.Second, time.Second, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		d := s.sessions[clientID]
		if d == nil || d.closed || d.gen != gen {
			return
		}
		d.rate.DecayTick()
		if d.lapsed && !d.ready && s.cfg.Clock.Now().UnixMilli()-d.lastContact >= lapseGrace.Milliseconds() {
			s.cfg.Obs.Emit(obs.ServerSessionLapsed, clientID, "", 0, 0)
			s.departLocked(d)
		}
	})
	sess.group = wire.SessionGroup(clientID)
	if rec.Leased {
		// Two-tier membership: a leased session has no session group to
		// join and no view to wait for — control arrives as direct
		// datagrams and frames were always point-to-point — so streaming
		// starts the moment the session exists. The group name is still
		// reported in the OpenReply for symmetry; nothing joins it.
		sess.ready = true
		sess.schedulePacingLocked()
		return sess
	}
	sess.onViewFn = func(v gcs.View) {
		s.later(func() { s.onSessionView(clientID, gen, v) })
	}
	sess.onMsgFn = func(_ string, from gcs.ProcessID, payload []byte) {
		s.handleSessionMessage(clientID, from, payload)
	}
	sess.joinFn = func() { s.joinSession(clientID, gen) }
	s.later(sess.joinFn)
	return sess
}

// joinSession enters the client's session group. It retries while a previous
// membership for the same client is still deactivating (a client released
// and re-adopted in quick succession). Deferred invocations identify the
// session by (clientID, gen) rather than holding the record, so a retry that
// fires after the session was torn down — or replaced by a later one of the
// same client — is a no-op.
func (s *Server) joinSession(clientID string, gen uint64) {
	s.mu.Lock()
	sess := s.sessions[clientID]
	if sess == nil || sess.closed || sess.gen != gen {
		s.mu.Unlock()
		return
	}
	if sess.joinTimer != nil {
		// This invocation is the retry timer firing; recycle its record.
		clock.Release(sess.joinTimer)
		sess.joinTimer = nil
	}
	group := sess.group
	contact := transport.Addr(sess.rec.ClientAddr)
	joinFn := sess.joinFn
	handlers := gcs.Handlers{OnView: sess.onViewFn, OnMessage: sess.onMsgFn}
	s.mu.Unlock()

	member, err := s.proc.Join(group, handlers, contact)

	s.mu.Lock()
	defer s.mu.Unlock()
	sess = s.sessions[clientID]
	stale := sess == nil || sess.closed || sess.gen != gen
	if err != nil {
		if stale {
			return
		}
		sess.joinTries++
		if sess.joinTries > 50 {
			return
		}
		sess.joinTimer = s.cfg.Clock.AfterFunc(100*time.Millisecond, joinFn)
		return
	}
	if stale {
		// Session died while joining; undo.
		leave := member.Leave
		s.later(func() { _ = leave() })
		return
	}
	sess.member = member
}

// lapseGrace is how long a session waits for its client to come back into
// the session view before it ends with a tombstone. It is far longer than a
// takeover and than the chaos schedules' client cuts (3–8 s): a tombstoned
// client that is alive reopens on its Open backoff, which costs more than the
// grace saves (DESIGN §7, "Session lapse").
const lapseGrace = 20 * time.Second

// onSessionView follows the client's presence in the session view. A view
// that includes the client starts streaming — the "two-way connection" of
// §3 — or resumes it from the held offset. A view without the client pauses
// the stream, so a server does not pace frames into the void of a cut or a
// crashed viewer; the decay task ends a session lapsed for lapseGrace.
func (s *Server) onSessionView(clientID string, gen uint64, v gcs.View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[clientID]
	if sess == nil || sess.closed || sess.gen != gen {
		return
	}
	switch in := v.Includes(transport.Addr(sess.rec.ClientAddr)); {
	case in && !sess.ready:
		sess.ready = true
		sess.schedulePacingLocked()
	case !in && sess.ready:
		sess.ready, sess.lapsed = false, true
		sess.lastContact = s.cfg.Clock.Now().UnixMilli()
		sess.haltPacingLocked()
	}
}

// sendPeriodLocked returns the inter-frame pacing interval at the current
// granted rate. Caller holds srv.mu.
func (sess *session) sendPeriodLocked() time.Duration {
	rate := sess.rate.Rate()
	if rate < 1 {
		rate = 1
	}
	return time.Second / time.Duration(rate)
}

// armSendLocked schedules the next sendOne after d, re-arming the previous
// pacing timer (fired, or stopped by a pause) so a streaming session reuses
// one timer forever. Caller holds srv.mu — the lock stopLocked releases the
// timer under — and has already passed the pacing guards.
func (sess *session) armSendLocked(d time.Duration) {
	sess.pacing = true
	sess.sendTimer = clock.Rearm(sess.srv.cfg.Clock, sess.sendTimer, d, sess.sendOneFn)
}

// haltPacingLocked cancels the pending send, keeping the offset: a pause, or
// a lapse of the client from the session view. Caller holds srv.mu.
func (sess *session) haltPacingLocked() {
	if sess.sendTimer != nil {
		sess.sendTimer.Stop()
	}
	sess.pacing = false
}

// schedulePacingLocked arms the next frame transmission at the current
// rate. What the session is selects the mechanism. A leased session — the
// tier a server holds thousands of, nearly all at the movie's nominal rate —
// attaches to the stripe matching its movie and period and shares that
// stripe's ticker. A session-group session keeps a dedicated timer: per-client
// flow control gives nearly every one of them its own period, so stripes
// would hold one session each and re-key on every rate change. Caller holds
// srv.mu.
func (sess *session) schedulePacingLocked() {
	if sess.closed || !sess.ready || sess.rec.Paused || sess.atEnd {
		return
	}
	if sess.rec.Leased {
		sess.srv.attachStripeLocked(sess)
		return
	}
	if sess.pacing {
		return
	}
	sess.armSendLocked(sess.sendPeriodLocked())
}

// sendOne is the dedicated pacing timer firing: advance the stream by one
// tick, arm the follow-up (at stretched spacing after a token shed), then
// transmit the tick's frame as a single delivery.
func (sess *session) sendOne() {
	s := sess.srv
	s.mu.Lock()
	sess.pacing = false
	if !sess.closed && sess.ready && !sess.rec.Paused {
		outcome, pkt := sess.paceTickLocked()
		switch outcome {
		case txSent:
			sess.schedulePacingLocked()
		case txShed:
			sess.armSendLocked(2 * sess.sendPeriodLocked())
		}
		if pkt != nil {
			_ = s.vid.SendPreframed(sess.dst, pkt)
		}
	}
	s.mu.Unlock()
}

// txOutcome reports what one pacing tick did with its frame.
type txOutcome int

const (
	txSent  txOutcome = iota // transmitted or thinned: position advanced
	txShed                   // shaper dry: frame held, retry at 2× spacing
	txEnded                  // ran past the last frame
)

// paceTickLocked advances the stream by one pacing tick — the shared body of
// the dedicated timer (sendOne) and the stripe walk, which differ only in
// where the cadence comes from and how the returned packet leaves. The
// stream position advances by exactly one frame per tick (so the movie
// always plays at the granted rate in movie time), and the frame's packet is
// returned for transmission unless quality thinning withholds it (§4.3:
// transmit all I frames and as many of the others as the client's
// capabilities allow; the packet is then nil). Best-effort sessions
// additionally pass the overload ladder: degrade thinning tightens their
// quality cap under pressure, and with a shaper configured the frame needs
// egress tokens — a dry bucket holds the frame (offset does not advance,
// txShed) for a retry at stretched spacing, so throttling lengthens frame
// intervals without ever skipping content. Caller holds srv.mu and has
// already passed the closed/paused guards.
func (sess *session) paceTickLocked() (txOutcome, []byte) {
	s := sess.srv
	total := uint32(sess.movie.TotalFrames())
	if sess.rec.Offset >= total {
		sess.atEnd = true
		return txEnded, nil
	}

	idx := int(sess.rec.Offset)
	info := sess.movie.Frame(idx)

	// Thinning decision (client quality cap, tightened by the degrade rung
	// for best-effort streams). The credit commit is deferred until the
	// frame's fate is final, so a token-shed retry of the same frame does
	// not double-charge the budget.
	fps := uint16(sess.movie.FPS())
	quality := sess.rec.QualityFPS
	degraded := false
	if sess.rec.Class == wire.ClassBestEffort {
		if dfps := s.degradeFPSLocked(); dfps > 0 && (quality == 0 || dfps < quality) {
			quality = dfps
			degraded = true
		}
	}
	thinning := quality > 0 && quality < fps
	if thinning && info.Class != wire.FrameI && sess.thinCredit+int(quality) < int(fps) {
		// Withheld by quality adjustment: the position advances (the movie
		// plays on in movie time) but nothing is transmitted.
		sess.thinCredit += int(quality)
		sess.rec.Offset++
		if degraded {
			s.stats.DegradedFrames++
		} else {
			s.stats.FramesThinned++
		}
		return txSent, nil
	}

	// Egress shaping: reserved sends always proceed (and may drive the
	// bucket into bounded debt); a best-effort send needs credit.
	t := sess.packets
	if sh := s.shaper; sh != nil {
		if sess.rec.Class == wire.ClassBestEffort {
			if !sh.TakeBestEffort(t.WireSize(idx)) {
				s.stats.ShedTokens++
				return txShed, nil
			}
		} else {
			sh.TakeReserved(t.WireSize(idx))
		}
	}
	if thinning {
		// I frames always go out; they borrow against the budget
		// (credit may go negative) so the total stays ≈ quality.
		sess.thinCredit += int(quality) - int(fps)
	}
	sess.rec.Offset++
	// The movie's shared packet table holds this frame fully framed
	// (channel prefix + encoded Frame message): no payload build, no
	// encode, and the preframed send path ships the immutable table
	// slice without copying. VideoBytes counts the wire message as a
	// per-message encoder would, i.e. without the one-byte mux prefix.
	s.stats.FramesSent++
	s.stats.VideoBytes += uint64(t.WireSize(idx))
	return txSent, t.Packet(idx)
}

// stopLocked halts the session permanently. Caller holds srv.mu.
func (sess *session) stopLocked() {
	if sess.closed {
		return
	}
	sess.closed = true
	if st := sess.stripe; st != nil {
		st.entries[sess.stripePos] = nil
		sess.stripe = nil
	}
	if sess.sendTimer != nil {
		clock.Release(sess.sendTimer)
		sess.sendTimer = nil
	}
	if sess.joinTimer != nil {
		clock.Release(sess.joinTimer)
		sess.joinTimer = nil
	}
	sess.decayTask.Stop()
	if m := sess.member; m != nil {
		sess.srv.later(func() { _ = m.Leave() })
	}
}

// handleSessionMessage processes a client control message multicast into
// the session group.
func (s *Server) handleSessionMessage(clientID string, _ gcs.ProcessID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[clientID]
	if sess == nil || sess.closed {
		return
	}
	s.sessionCtlLocked(sess, clientID, payload)
}

// sessionCtlLocked executes one client control message against its session
// — shared by the session-group path and the leased direct path. Caller
// holds s.mu.
func (s *Server) sessionCtlLocked(sess *session, clientID string, payload []byte) {
	// Flow control dominates this channel (one request per granted-rate
	// adjustment, every client, all session long); decode it into the
	// session's scratch so the steady state allocates nothing.
	if len(payload) > 0 && wire.Kind(payload[0]) == wire.KindFlowControl {
		msg := &sess.fc
		if err := wire.DecodeFlowControlInto(msg, payload); err != nil || msg.ClientID != clientID {
			return
		}
		wasActive := sess.rate.EmergencyActive()
		sess.rate.OnRequest(msg.Request, int(msg.Occupancy))
		if !wasActive && sess.rate.EmergencyActive() {
			s.stats.Emergencies++
			s.cfg.Obs.Emit(obs.ServerEmergencyBoost, clientID, "", 0, 0)
		}
		sess.rec.Rate = uint16(sess.rate.Base())
		return
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		return
	}
	if vcr, ok := msg.(*wire.VCR); ok && vcr.ClientID == clientID {
		s.handleVCRLocked(sess, vcr)
	}
}

// handleVCRLocked executes a VCR operation (§3: "full VCR-like control").
func (s *Server) handleVCRLocked(sess *session, msg *wire.VCR) {
	switch msg.Op {
	case wire.VCRPause:
		sess.rec.Paused = true
		sess.haltPacingLocked()
	case wire.VCRResume:
		sess.rec.Paused = false
		sess.schedulePacingLocked()
	case wire.VCRSeek:
		target := int(msg.Arg)
		if target >= sess.movie.TotalFrames() {
			target = sess.movie.TotalFrames() - 1
		}
		// Random access lands on the next I frame so the client can
		// decode from the first delivered frame.
		idx := sess.movie.NextIFrame(target)
		if idx < 0 {
			idx = sess.movie.PrevIFrame(target)
		}
		sess.rec.Offset = uint32(idx)
		sess.atEnd = false
		sess.thinCredit = 0
		sess.schedulePacingLocked()
	case wire.VCRQuality:
		fps := uint32(sess.movie.FPS())
		if msg.Arg >= fps {
			sess.rec.QualityFPS = 0 // full quality
		} else {
			sess.rec.QualityFPS = uint16(msg.Arg)
		}
		sess.thinCredit = 0
	case wire.VCRStop:
		s.departLocked(sess)
	}
}
