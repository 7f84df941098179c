package server

import (
	"slices"
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
// A session's timers, beat and hand-overs run the session itself as their
// clock.Runner, and each checks under srv.mu that the session is live, so one
// that fires after stopLocked or after a later session of the client bails.
//
// A session is 360 bytes on 64-bit platforms, in the 384-byte size class:
// three more words still fit, and a fourth moves every session of the scale
// table into the 416-byte class.
type session struct {
	srv   *Server
	rec   wire.ClientRecord // live state; rec.Offset is the next frame to send
	movie *mpeg.Movie
	rate  *flowctl.RateController

	// packets is the movie's shared preframed-datagram table: one table per
	// movie serves every concurrent viewer, replacing the per-session frame
	// build buffers entirely.
	packets *mpeg.PacketTable

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
	joinTimer clock.Timer
	decayTask clock.Periodic
	joinTries int

	// group and the two handlers are built once in startSessionLocked and
	// reused by every join retry, which would otherwise rebuild them on each
	// attempt. A leased session joins no group and leaves all three unset.
	group    string
	onViewFn func(gcs.View)
	onMsgFn  func(string, gcs.ProcessID, []byte)

	// views holds the session-group views not yet handled, oldest first, as
	// movieState.views does. Guarded by srv.mu.
	views []gcs.View

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
	sess := &session{
		srv:     s,
		rec:     rec,
		movie:   movie,
		rate:    flowctl.NewRateController(s.cfg.Flow, movie.FPS()),
		packets: movie.Packets(s.vid.Preframe()),
		// Resuming at a stale offset past the end means the movie ended.
		atEnd:       takeover && int(rec.Offset) >= movie.TotalFrames(),
		lastContact: rec.SentAt,
		fc:          wire.FlowControl{ClientID: rec.ClientID},
	}
	sess.rate.SetBase(int(rec.Rate))
	s.sessions[rec.ClientID] = sess
	clientID := rec.ClientID
	sess.decayTask.Start(s.cfg.Clock, time.Second, time.Second, (*sessionDecay)(sess))
	if rec.Leased {
		// Two-tier membership: a leased session has no session group to
		// join and no view to wait for — control arrives as direct
		// datagrams and frames were always point-to-point — so streaming
		// starts the moment the session exists, and its OpenReply names
		// no group.
		sess.ready = true
		sess.schedulePacingLocked()
		return sess
	}
	sess.group = wire.SessionGroup(clientID)
	sess.onViewFn = sess.queueView
	sess.onMsgFn = func(_ string, from gcs.ProcessID, payload []byte) {
		s.handleSessionMessage(clientID, from, payload)
	}
	s.later((*sessionJoin)(sess))
	return sess
}

// The session as the Runner of each of its callbacks.
type (
	sessionSend  session // the pacing timer: sendOne
	sessionDecay session // the rate-decay beat: decayTick
	sessionJoin  session // the session-group join and its retry timer: join
	sessionViews session // a queued session-group view: nextView
)

func (r *sessionSend) Run()  { (*session)(r).sendOne() }
func (r *sessionDecay) Run() { (*session)(r).decayTick() }
func (r *sessionJoin) Run()  { (*session)(r).join() }
func (r *sessionViews) Run() { (*session)(r).nextView() }

// liveLocked reports whether sess is running and still its client's session.
// Caller holds srv.mu.
func (sess *session) liveLocked() bool {
	return !sess.closed && sess.srv.sessions[sess.rec.ClientID] == sess
}

// decayTick is the once-a-second beat: decay the emergency boost, and end a
// session whose client lapsed from the session view for lapseGrace.
func (sess *session) decayTick() {
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sess.liveLocked() {
		return
	}
	sess.rate.DecayTick()
	if sess.lapsed && !sess.ready && s.cfg.Clock.Now().UnixMilli()-sess.lastContact >= lapseGrace.Milliseconds() {
		s.cfg.Obs.Emit(obs.ServerSessionLapsed, sess.rec.ClientID, "", 0, 0)
		s.departLocked(sess)
	}
}

// join enters the client's session group. It retries while a previous
// membership for the same client is still deactivating (a client released
// and re-adopted in quick succession). A join or retry that runs after the
// session was torn down — or replaced by a later one of the same client — is
// a no-op.
func (sess *session) join() {
	s := sess.srv
	s.mu.Lock()
	if !sess.liveLocked() {
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
	handlers := gcs.Handlers{OnView: sess.onViewFn, OnMessage: sess.onMsgFn}
	s.mu.Unlock()

	member, err := s.proc.Join(group, handlers, contact)

	s.mu.Lock()
	defer s.mu.Unlock()
	stale := !sess.liveLocked()
	if err != nil {
		if stale {
			return
		}
		sess.joinTries++
		if sess.joinTries > 50 {
			return
		}
		sess.joinTimer = clock.AfterRun(s.cfg.Clock, 100*time.Millisecond, (*sessionJoin)(sess))
		return
	}
	if stale {
		// Session died while joining; undo.
		leave := member.Leave
		s.later(clock.Func(func() { _ = leave() }))
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

// queueView is the session group's OnView: it queues the view and schedules
// its handling off the group's install, as movieState.queueView does.
func (sess *session) queueView(v gcs.View) {
	s := sess.srv
	s.mu.Lock()
	sess.views = append(sess.views, v)
	s.mu.Unlock()
	s.later((*sessionViews)(sess))
}

// nextView takes and handles the oldest queued view in one hold of srv.mu, so
// views are handled in the order they were queued. A view that includes
// the client starts streaming — the "two-way connection" of §3 — or resumes
// it from the held offset. A view without the client pauses the stream, so a
// server does not pace frames into the void of a cut or a crashed viewer; the
// decay task ends a session lapsed for lapseGrace.
func (sess *session) nextView() {
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	v := sess.views[0]
	sess.views = slices.Delete(sess.views, 0, 1)
	if !sess.liveLocked() {
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
	sess.sendTimer = clock.Rearm(sess.srv.cfg.Clock, sess.sendTimer, d, (*sessionSend)(sess))
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
// rate, on the session's own timer, whatever its tier: the paper's server
// paces every client separately (§4.1). Caller holds srv.mu.
func (sess *session) schedulePacingLocked() {
	if sess.closed || !sess.ready || sess.rec.Paused || sess.atEnd || sess.pacing {
		return
	}
	sess.armSendLocked(sess.sendPeriodLocked())
}

// sendOne is the session's pacing timer firing: it advances the stream by
// one pacing tick, arms the follow-up, then transmits the tick's frame as a
// single delivery. The stream position advances by exactly one frame per tick
// (so the movie always plays at the granted rate in movie time), and the
// frame's packet is transmitted unless quality thinning withholds it (§4.3:
// transmit all I frames and as many of the others as the client's
// capabilities allow). Best-effort sessions additionally pass the overload
// ladder: degrade thinning tightens their quality cap under pressure, and
// with a shaper configured the frame needs egress tokens — a dry bucket holds
// the frame (offset does not advance) for a retry at stretched spacing, so
// throttling lengthens frame intervals without ever skipping content.
func (sess *session) sendOne() {
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.pacing = false
	if sess.closed || !sess.ready || sess.rec.Paused {
		return
	}
	total := uint32(sess.movie.TotalFrames())
	if sess.rec.Offset >= total {
		sess.atEnd = true
		return
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
		sess.schedulePacingLocked()
		return
	}

	// Egress shaping: reserved sends always proceed (and may drive the
	// bucket into bounded debt); a best-effort send needs credit.
	t := sess.packets
	if sh := s.shaper; sh != nil {
		if sess.rec.Class == wire.ClassBestEffort {
			if !sh.TakeBestEffort(t.WireSize(idx)) {
				s.stats.ShedTokens++
				sess.armSendLocked(2 * sess.sendPeriodLocked())
				return
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
	sess.schedulePacingLocked()
	_ = s.vid.SendPreframed(transport.Addr(sess.rec.ClientAddr), t.Packet(idx))
}

// stopLocked halts the session permanently. Caller holds srv.mu.
func (sess *session) stopLocked() {
	if sess.closed {
		return
	}
	sess.closed = true
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
		sess.srv.later(clock.Func(func() { _ = m.Leave() }))
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
