// Package server implements the paper's VoD server. Each server:
//
//   - joins the server group (clients contact the abstract group, §5.1);
//   - joins one movie group per movie it holds, multicasting its clients'
//     offsets and rates every half second (§5.2);
//   - serves each of its clients over a per-client session group (control)
//     and the unreliable video channel (frames, one per datagram);
//   - on every movie-group view change, exchanges client knowledge with
//     the other members and deterministically re-distributes the clients —
//     taking over clients assigned to it and releasing the rest (§5.2).
//
// Takeover resumes "from the offset and transmission rate that were last
// heard from the previous server": state is at most one sync period stale,
// so a taking-over server conservatively retransmits up to half a second
// of video (duplicates preferred over gaps — the paper's Figure 4b).
package server

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/congress"
	"repro/internal/fetch"
	"repro/internal/flowctl"
	"repro/internal/gcs"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// movieGroup names a movie's group. The server and session groups, which
// clients name too, are wire.ServerGroup and wire.SessionGroup.
func movieGroup(movieID string) string { return "vod.movie." + movieID }

// Config configures a Server.
type Config struct {
	// ID is the server's name and transport address.
	ID string
	// Clock and Network supply the runtime environment.
	Clock   clock.Clock
	Network transport.Network
	// Catalog holds the movies this server serves. The server joins the
	// movie group of every movie in the catalog at Start.
	Catalog *store.Catalog
	// Peers are the other (potential) servers — the contact list for the
	// server and movie groups. Peers need not be alive.
	Peers []string
	// Directory, when set, is a CONGRESS directory address: the server
	// registers itself under the server-group name there so clients can
	// discover the service without a static server list (§5.1's "the
	// client communicates with the abstract group").
	Directory string
	// MaxSessions, when positive, is the admission-control limit: Opens
	// beyond it are refused (the client tries the next server). Related
	// VoD work the paper builds on treats admission control as essential
	// for keeping QoS for admitted streams; takeovers after failures are
	// never refused — degraded service beats no service.
	MaxSessions int
	// FetchMovies lists movies this server should replicate from its
	// peers at startup (§7: "a new server can be brought up without any
	// special preparations") and then serve. Movies already in the
	// catalog are skipped; each missing movie is fetched from the first
	// peer that has it.
	FetchMovies []string
	// Overload configures the class-aware overload-control subsystem
	// (egress shaping + degrade-before-refuse admission). The zero value
	// disables it entirely: classes are then tracked but never acted on,
	// and the server behaves exactly as it did before classes existed.
	Overload OverloadConfig
	// Placement, when set, is the consistent-hash movie→server ring shared
	// by the whole deployment. Each movie group's contact list is then
	// scoped to the movie's ring owners instead of every peer, so a
	// 50-server core runs one small virtual-synchrony group per movie arc
	// rather than a full mesh. Servers not on a movie's arc fall back to
	// the full peer list for that movie.
	Placement *placement.Ring
	// Replicas is the number of ring owners per movie when Placement is
	// set (default 2) — the movie group size, hence the failure budget.
	Replicas int
	// Flow is the flow-control parameter set of the deployment's clients
	// (DefaultParams if zero): its emergency quantity, its lockout rule,
	// and the buffer whose high water mark ends a burst.
	Flow flowctl.Params
	// SyncInterval is the state-sync period on movie groups (default
	// 500ms, the paper's value).
	SyncInterval time.Duration
	// Obs, when set, receives the server's server.* counters and trace
	// events, and is forwarded to the embedded GCS process.
	Obs *obs.Registry
}

// OverloadConfig tunes the degrade-before-refuse overload ladder. It only
// takes effect when at least one of its levers is set; enabling a single
// lever is enough.
//
// The ladder, from mildest to harshest (reserved viewers are touched only by
// the last rung, and takeover bypasses all of them):
//
//  1. shed best-effort quality: at DegradeSessions sessions, or whenever the
//     egress bucket is under pressure, best-effort streams are thinned to
//     degradeFPS (I frames always pass, same as a client quality request);
//  2. throttle best-effort frames: with ShapeRate set, a best-effort frame
//     needs bucket tokens to leave; when the bucket is dry the frame waits
//     and retries — stretched spacing, never a dropped offset;
//  3. refuse best-effort Opens: at BestEffortSessions total sessions, new
//     best-effort Opens are refused with a retryAfter hint;
//  4. refuse reserved Opens: only at MaxSessions — truly full.
type OverloadConfig struct {
	// ShapeRate is the egress token-bucket refill rate in bytes/s; the
	// bucket is a quarter second of it deep. Zero disables shaping (rungs
	// 1–3 can still act on session counts).
	ShapeRate int64
	// BestEffortSessions is the total session count at which new
	// best-effort Opens are refused. Zero means best-effort admits up to
	// MaxSessions like everyone else.
	BestEffortSessions int
	// DegradeSessions is the total session count at which best-effort
	// streams are thinned to degradeFPS. Zero means thinning is driven by
	// shaper pressure alone.
	DegradeSessions int
}

// The overload ladder's fixed settings.
const (
	// degradeFPS is the thinned best-effort frame rate.
	degradeFPS uint16 = 10
	// retryAfter is the hint attached to best-effort refusals.
	retryAfter = time.Second
)

// enabled reports whether any overload lever is configured.
func (oc *OverloadConfig) enabled() bool {
	return oc.ShapeRate > 0 || oc.BestEffortSessions > 0 || oc.DegradeSessions > 0
}

func (oc *OverloadConfig) validate() error {
	if oc.ShapeRate <= 0 {
		return nil
	}
	p := flowctl.ShaperParams{Rate: oc.ShapeRate}
	return p.Validate()
}

func (c *Config) fillDefaults() error {
	if c.ID == "" || c.Clock == nil || c.Network == nil || c.Catalog == nil {
		return fmt.Errorf("server: ID, Clock, Network and Catalog are required")
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 500 * time.Millisecond
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Flow == (flowctl.Params{}) {
		c.Flow = flowctl.DefaultParams()
	}
	if err := c.Flow.Validate(); err != nil {
		return err
	}
	return c.Overload.validate()
}

// Stats are the server's cumulative counters, used by the experiment
// harness (sync-overhead accounting, takeover counts).
type Stats struct {
	FramesSent     uint64 // video frames transmitted
	VideoBytes     uint64 // video payload bytes transmitted (incl. headers)
	SyncMessages   uint64 // state-sync multicasts sent
	SyncBytes      uint64 // state-sync payload bytes sent
	SessionsOpened uint64 // sessions started by client request
	Takeovers      uint64 // sessions adopted from another server
	Releases       uint64 // sessions handed to another server
	Emergencies    uint64 // emergency boosts granted
	FramesThinned  uint64 // frames withheld by quality adjustment

	// Overload-control counters (all zero unless Config.Overload is set or
	// best-effort clients show up).
	AdmitsReserved     uint64 // reserved-class sessions admitted via Open
	AdmitsBestEffort   uint64 // best-effort sessions admitted via Open
	RefusalsReserved   uint64 // reserved Opens refused (truly full)
	RefusalsBestEffort uint64 // best-effort Opens refused (near capacity)
	ShedTokens         uint64 // best-effort frame sends deferred by the shaper
	DegradedFrames     uint64 // best-effort frames withheld by degrade thinning
}

// Server is one VoD server instance.
type Server struct {
	cfg  Config
	mux  *transport.Mux
	proc *gcs.Process
	// vid is the video channel: sessions resolve their client address on it
	// once at start and send shared packet-table slices through its
	// preframed path without any per-frame build or copy.
	vid *transport.Channel
	// atCapacityMsg is the admission-refusal error, formatted once instead
	// of per refused Open — a refusal storm is exactly when the server is
	// busiest.
	atCapacityMsg string
	// beCapacityMsg is the best-effort refusal error (degrade-before-refuse
	// rung 3); equals atCapacityMsg when no separate best-effort limit is
	// configured.
	beCapacityMsg string
	// retryAfterMs is the Retry-After hint attached to best-effort
	// refusals; zero when overload control is disabled.
	retryAfterMs uint32
	// shaper is the egress token bucket (nil unless Overload.ShapeRate is
	// set). Guarded by mu, like the sessions that draw from it.
	shaper *flowctl.Shaper

	mu          sync.Mutex
	started     bool
	closed      bool
	serverGroup *gcs.Member
	movies      map[string]*movieState // by movie ID
	sessions    map[string]*session    // by client ID
	registrar   *congress.Registrar
	provider    *fetch.Provider
	fetcher     *fetch.Fetcher
	stats       Stats

	// fetchOrder is the order the fetch loop tries peers in while it runs;
	// nil otherwise.
	fetchOrder []gcs.ProcessID

	// leases tracks the liveness of leased clients. Created lazily on the
	// first leased admission: a paper-tier server never needs the table or
	// its sweep.
	leases *lease.Table
	// ackBuf is the renew hot path's encode buffer (one renew per client
	// per TTL/3), guarded by mu.
	ackBuf []byte

	// syncIn is the decode target for peers' state-sync messages, and
	// syncIntern dedups the strings decoded into it: the same client IDs and
	// addresses arrive every half second for the whole session, so only the
	// first sighting of each allocates. The table is capped (wire.Intern), so
	// a daemon's client churn does not grow it forever. Guarded by mu, which
	// the delivery holds across decode and merge.
	syncIn     wire.ClientState
	syncIntern wire.Intern

	// openIn, openReply and openEnc are the Open handler's decode target and
	// reply scratch, guarded by mu, which the delivery holds from decode to
	// send. Under over-capacity load every client retries its Open on a
	// timer, so the open/refuse cycle is a steady-state hot path, and a warm
	// refusal allocates nothing here.
	openIn    wire.Open
	openReply wire.OpenReply
	openEnc   wire.Encoder

	// sessionGen numbers the sessions this server has started, so a queued
	// join or view callback can tell two sessions of one client ID apart.
	// Guarded by mu.
	sessionGen uint64

	// stripes holds the coalesced pacing tickers of the leased tier, one
	// per (movie, send period, phase slot) with at least one attached
	// session, plus the parked ones, parkedStripes of them per movie.
	// Guarded by mu; both nil until the first attach.
	stripes       map[stripeKey]*stripe
	parkedStripes map[string]int

	// The stripe beat's batch: a stripe walk appends each frame it sends
	// here, and flushes the whole batch in one network call after the walk. The slices keep their
	// capacity across beats, so a warm beat collects and flushes without
	// allocating. Guarded by mu.
	txDsts []transport.Dest
	txPkts [][]byte
}

// New creates a server. Call Start to bring it online.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ep, err := cfg.Network.NewEndpoint(transport.Addr(cfg.ID))
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
	}
	mux := transport.NewMux(ep)

	s := &Server{
		cfg: cfg,
		mux: mux,
		proc: gcs.NewProcess(gcs.Config{
			Clock:    cfg.Clock,
			Endpoint: mux.Channel(transport.ChannelGCS),
			Obs:      cfg.Obs,
		}),
		movies:     make(map[string]*movieState),
		sessions:   make(map[string]*session),
		syncIntern: wire.Intern{},
	}
	// A nil registry would drop the source anyway; the guard saves an
	// unobserved server the method value's allocation.
	if cfg.Obs != nil {
		cfg.Obs.Source(s.report)
	}
	s.vid = mux.Channel(transport.ChannelVideo)
	if cfg.MaxSessions > 0 {
		s.atCapacityMsg = fmt.Sprintf("server %s at capacity (%d sessions)", cfg.ID, cfg.MaxSessions)
	}
	s.beCapacityMsg = s.atCapacityMsg
	if cfg.Overload.enabled() {
		s.retryAfterMs = uint32(retryAfter.Milliseconds())
		if be := cfg.Overload.BestEffortSessions; be > 0 {
			s.beCapacityMsg = fmt.Sprintf("server %s best-effort capacity (%d sessions)", cfg.ID, be)
		}
		if cfg.Overload.ShapeRate > 0 {
			s.shaper = flowctl.NewShaper(cfg.Clock.Now, flowctl.ShaperParams{Rate: cfg.Overload.ShapeRate})
		}
	}
	return s, nil
}

// Start joins the server group and the movie groups for every movie in the
// catalog, making the server available to clients.
func (s *Server) Start() error {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server %s: already started or closed", s.cfg.ID)
	}
	s.started = true
	movieIDs := s.cfg.Catalog.List()
	s.mu.Unlock()

	contacts := make([]gcs.ProcessID, 0, len(s.cfg.Peers))
	for _, p := range s.cfg.Peers {
		if p != s.cfg.ID {
			contacts = append(contacts, transport.Addr(p))
		}
	}

	// Leased clients speak to their server over direct datagrams (renews,
	// flow control, VCR). Legacy clients never Send to a server, so the
	// handler is inert for them.
	s.proc.SetDirectHandler(s.onDirect)

	// Serve replication requests from peers, and fetch whatever movies we
	// were asked to serve but do not hold. The fetcher exists before the
	// server group is joined, because its views steer the fetch.
	s.provider = fetch.NewProvider(s.cfg.Catalog,
		s.mux.Channel(transport.ChannelBulk), s.mux.Channel(transport.ChannelBulkReply), s.cfg.Obs)
	s.fetcher = fetch.NewFetcher(s.cfg.Clock,
		s.mux.Channel(transport.ChannelBulk), s.mux.Channel(transport.ChannelBulkReply), s.cfg.Obs)
	handlers := gcs.Handlers{OnMessage: s.onServerGroupMessage}
	var missing []string
	for _, id := range s.cfg.FetchMovies {
		if !s.cfg.Catalog.Has(id) {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		handlers.OnView = s.onServerView
		s.mu.Lock()
		s.fetchOrder = contacts
		s.mu.Unlock()
	}

	sg, err := s.proc.Join(wire.ServerGroup, handlers, contacts...)
	if err != nil {
		return fmt.Errorf("server %s: joining server group: %w", s.cfg.ID, err)
	}
	s.mu.Lock()
	s.serverGroup = sg
	s.mu.Unlock()

	for _, id := range movieIDs {
		if err := s.serveMovie(id, s.movieContacts(id, contacts)); err != nil {
			return err
		}
	}
	if len(missing) > 0 {
		s.later(func() { s.fetchNext(missing, contacts, 0) })
	}

	if s.cfg.Directory != "" {
		reg := congress.NewRegistrar(
			s.cfg.Clock,
			s.mux.Channel(transport.ChannelDirectory),
			transport.Addr(s.cfg.Directory),
			wire.ServerGroup,
			transport.Addr(s.cfg.ID),
		)
		s.mu.Lock()
		s.registrar = reg
		s.mu.Unlock()
	}
	return nil
}

// movieContacts scopes a movie group's contact list to the movie's ring
// owners when a placement ring is configured: only the owners of the arc
// need virtual synchrony for the movie, so group size — and with it sync
// fan-out, flush cost and view-change blast radius — stays at Replicas no
// matter how many servers the deployment runs. Without a ring (or for a
// movie served off-arc) the full peer list is used, as before.
func (s *Server) movieContacts(movieID string, all []gcs.ProcessID) []gcs.ProcessID {
	r := s.cfg.Placement
	if r == nil || r.Len() == 0 {
		return all
	}
	owners := r.LookupN(movieID, s.cfg.Replicas)
	onArc := false
	contacts := make([]gcs.ProcessID, 0, len(owners))
	for _, o := range owners {
		if o == s.cfg.ID {
			onArc = true
			continue
		}
		contacts = append(contacts, transport.Addr(o))
	}
	if !onArc {
		return all
	}
	return contacts
}

// serveMovie joins the movie's group and starts its sync task.
func (s *Server) serveMovie(movieID string, contacts []gcs.ProcessID) error {
	movie, err := s.cfg.Catalog.Get(movieID)
	if err != nil {
		return err
	}
	ms := &movieState{
		srv:     s,
		movie:   movie,
		clients: make(map[string]wire.ClientRecord),
	}
	member, err := s.proc.Join(movieGroup(movieID), gcs.Handlers{
		OnView:    func(v gcs.View) { s.later(func() { ms.onView(v) }) },
		OnMessage: func(_ string, from gcs.ProcessID, payload []byte) { s.onMovieGroupMessage(ms, from, payload) },
	}, contacts...)
	if err != nil {
		return fmt.Errorf("server %s: joining movie group %s: %w", s.cfg.ID, movieID, err)
	}
	s.mu.Lock()
	ms.member = member
	ms.syncTask.Start(s.cfg.Clock, s.cfg.SyncInterval, s.cfg.SyncInterval, ms.syncTick)
	s.movies[movieID] = ms
	s.mu.Unlock()
	return nil
}

// later schedules f on the clock, off any caller's locks: the trampoline
// for work begun under s.mu that must re-enter the GCS (multicast, join,
// leave) or that the GCS hands over mid-install (a view).
func (s *Server) later(f func()) {
	clock.Schedule(s.cfg.Clock, 0, f)
}

// Stop takes the server offline abruptly — equivalent to a crash as far as
// peers are concerned, except sessions stop transmitting immediately.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Stop in client-ID order: stopLocked schedules each session's Leave,
	// and the order those events are armed in is the order they run in, so
	// map order here would leak into otherwise seed-deterministic runs.
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.sessions[id].stopLocked()
	}
	s.sessions = make(map[string]*session)
	// Stopping a beat or a timer arms nothing, so these go in map order.
	for _, st := range s.stripes {
		st.task.Stop()
	}
	s.stripes, s.parkedStripes = nil, nil
	for _, ms := range s.movies {
		ms.syncTask.Stop()
		if ms.ex.timer != nil {
			ms.ex.timer.Stop()
		}
	}
	if s.leases != nil {
		s.leases.Close()
	}
	reg := s.registrar
	s.mu.Unlock()
	if reg != nil {
		reg.Stop()
	}
	s.proc.Close()
	_ = s.mux.Close()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// report is the server's obs source: it adds Stats under the server.* names
// — the per-class ones only when overload control is on — and the session
// count as the server.active_sessions gauge.
func (s *Server) report(snap *obs.Snapshot) {
	s.mu.Lock()
	st, active := s.stats, len(s.sessions)
	s.mu.Unlock()
	c := snap.Counters
	c["server.sessions_opened"] += st.SessionsOpened
	c["server.takeovers"] += st.Takeovers
	c["server.releases"] += st.Releases
	c["server.frames_sent"] += st.FramesSent
	c["server.video_bytes"] += st.VideoBytes
	c["server.frames_thinned"] += st.FramesThinned
	c["server.emergency_boosts"] += st.Emergencies
	c["server.sync_messages"] += st.SyncMessages
	c["server.sync_bytes"] += st.SyncBytes
	if s.cfg.Overload.enabled() {
		c["server.admits_reserved"] += st.AdmitsReserved
		c["server.admits_best_effort"] += st.AdmitsBestEffort
		c["server.refusals_reserved"] += st.RefusalsReserved
		c["server.refusals_best_effort"] += st.RefusalsBestEffort
		c["server.shed_tokens"] += st.ShedTokens
		c["server.degraded_frames"] += st.DegradedFrames
	}
	snap.Gauges["server.active_sessions"] += int64(active)
}

// degradeFPSLocked returns the quality cap to impose on best-effort streams
// right now: nonzero when the session count has crossed the degrade rung or
// the egress bucket is under pressure, zero when best effort runs at full
// quality. Caller holds s.mu.
func (s *Server) degradeFPSLocked() uint16 {
	oc := &s.cfg.Overload
	if ds := oc.DegradeSessions; ds > 0 && len(s.sessions) >= ds {
		return degradeFPS
	}
	if s.shaper != nil && s.shaper.UnderPressure() {
		return degradeFPS
	}
	return 0
}

// dropSessionLocked is the single teardown path for a live session: stop it,
// remove it from the session table and keep the per-class census honest.
// Caller holds s.mu.
func (s *Server) dropSessionLocked(sess *session) {
	sess.stopLocked()
	delete(s.sessions, sess.rec.ClientID)
	if sess.rec.Leased && s.leases != nil {
		s.leases.Drop(sess.rec.ClientID)
	}
}

// departLocked ends a session for good: its tombstone goes to the movie group,
// so peers forget the client rather than take it over, and the session is
// dropped. Caller holds s.mu.
func (s *Server) departLocked(sess *session) {
	sess.rec.Departed = true
	if ms := s.movies[sess.movie.ID()]; ms != nil {
		ms.announceLocked(sess.rec)
	}
	s.dropSessionLocked(sess)
}

// ActiveSessions returns the IDs of clients this server currently serves,
// for harness assertions ("each client is served by exactly one server").
func (s *Server) ActiveSessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	return out
}

// HasSession reports whether this server currently serves clientID. Unlike
// ActiveSessions it allocates nothing, so samplers can poll it.
func (s *Server) HasSession(clientID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[clientID]
	return ok
}

// onServerGroupMessage handles messages on the server group — notably the
// Open anycasts from clients contacting the abstract VoD service. The payload
// aliases the transport receive buffer and is decoded (copied) here;
// DecodeOpenInto keeps the scratch's previous strings when a retry resends
// the same values.
func (s *Server) onServerGroupMessage(_ string, from gcs.ProcessID, payload []byte) {
	if len(payload) == 0 || wire.Kind(payload[0]) != wire.KindOpen {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || wire.DecodeOpenInto(&s.openIn, payload) != nil {
		return
	}
	s.handleOpenLocked(from)
}

// replyOpenLocked sends reply to an Open's sender from the server's reply
// scratch (gcs Send copies the packet before returning). Caller holds s.mu.
func (s *Server) replyOpenLocked(to gcs.ProcessID, reply wire.OpenReply) {
	s.openReply = reply
	_ = s.proc.Send(to, s.openEnc.Encode(&s.openReply))
}

// handleOpenLocked starts a session for the client whose Open is in
// s.openIn, or tells it to try elsewhere if this server does not hold the
// movie. Caller holds s.mu.
func (s *Server) handleOpenLocked(from gcs.ProcessID) {
	open := &s.openIn
	movie, err := s.cfg.Catalog.Get(open.Movie)
	if err != nil {
		s.replyOpenLocked(from, wire.OpenReply{OK: false, Error: err.Error(), Movie: open.Movie})
		return
	}

	_, servedHere := s.sessions[open.ClientID]
	servedElsewhere := false
	var elseRec wire.ClientRecord
	if ms := s.movies[open.Movie]; ms != nil && !servedHere {
		// A retried Open (lost reply) may reach a second server after the
		// first one already started serving; the knowledge table knows.
		if rec, known := ms.clients[open.ClientID]; known && !rec.Departed {
			servedElsewhere = true
			elseRec = rec
		}
	}
	// A leased takeover adopts the client from the knowledge table: its
	// server went silent (lease keeper starved), so it re-anycast the Open
	// with the takeover flag and whichever live owner holds the movie
	// resumes from the last-heard offset. Like view-change takeover, this
	// bypasses admission — degraded service beats no service.
	adopt := open.Lease && open.Takeover && servedElsewhere
	if open.Lease && servedElsewhere && !adopt {
		// Plain lease retry that raced its own reply to a second server:
		// refuse briefly instead of double-streaming; the client keeps
		// cycling the owner list and re-reaches its real server.
		s.replyOpenLocked(from, wire.OpenReply{
			OK:           false,
			Error:        "session active elsewhere",
			Movie:        open.Movie,
			RetryAfterMs: 250,
		})
		return
	}
	if !servedHere && !servedElsewhere {
		// Degrade-before-refuse admission ladder: best-effort Opens hit
		// their (lower) limit first and carry a Retry-After hint; reserved
		// Opens are refused only when the server is truly full. Takeover
		// never comes through here and bypasses admission entirely.
		limit := s.cfg.MaxSessions
		msg, retry := s.atCapacityMsg, uint32(0)
		if open.Class == wire.ClassBestEffort {
			if be := s.cfg.Overload.BestEffortSessions; be > 0 && (limit == 0 || be < limit) {
				limit = be
			}
			msg, retry = s.beCapacityMsg, s.retryAfterMs
		}
		if limit > 0 && len(s.sessions) >= limit {
			if open.Class == wire.ClassBestEffort {
				s.stats.RefusalsBestEffort++
			} else {
				s.stats.RefusalsReserved++
			}
			s.replyOpenLocked(from, wire.OpenReply{
				OK:           false,
				Error:        msg,
				Movie:        open.Movie,
				RetryAfterMs: retry,
			})
			return
		}
	}
	switch {
	case servedHere:
		// Duplicate open (client retry); just re-send the reply below.
		if open.Lease {
			if sess := s.sessions[open.ClientID]; sess != nil && sess.rec.Leased {
				s.leasesLocked().Touch(open.ClientID)
			}
		}
	case servedElsewhere && !adopt:
		// Duplicate open (lost reply reached a second server); the peer
		// keeps the session — just re-send the reply below. Leased opens
		// never get here: they were refused above or adopt below.
	case adopt:
		rec := elseRec
		rec.ClientAddr = open.ClientAddr
		rec.Leased = true
		s.startSessionLocked(rec, movie, true)
		s.leasesLocked().Touch(rec.ClientID)
		s.stats.Takeovers++
		s.cfg.Obs.Emit(obs.ServerLeaseTakeover, open.ClientID, open.Movie, 0, 0)
	default:
		rec := wire.ClientRecord{
			ClientID:   open.ClientID,
			ClientAddr: open.ClientAddr,
			Offset:     0,
			Rate:       uint16(movie.FPS()),
			SentAt:     s.cfg.Clock.Now().UnixMilli(), // the session's first contact
			Class:      open.Class,
			Leased:     open.Lease,
		}
		s.startSessionLocked(rec, movie, false)
		if open.Lease {
			s.leasesLocked().Touch(rec.ClientID)
		}
		s.stats.SessionsOpened++
		if open.Class == wire.ClassBestEffort {
			s.stats.AdmitsBestEffort++
		} else {
			s.stats.AdmitsReserved++
		}
		s.cfg.Obs.Emit(obs.ServerSessionOpen, open.ClientID, open.Movie, 0, 0)
	}
	// Tell the movie group about the client right away, shrinking the window
	// in which a crash would orphan it: this session's record and no other.
	// (A duplicate Open whose session lives on a peer has nothing to announce.)
	var group string
	if sess := s.sessions[open.ClientID]; sess != nil {
		group = sess.group // precomputed at session start
		if ms := s.movies[sess.movie.ID()]; ms != nil {
			ms.announceLocked(sess.rec)
		}
	} else { // served elsewhere: no local session to borrow from
		group = wire.SessionGroup(open.ClientID)
	}
	ttlMs := uint32(0)
	if open.Lease {
		ttlMs = uint32(lease.DefaultTTL.Milliseconds())
	}
	s.replyOpenLocked(from, wire.OpenReply{
		OK:           true,
		Movie:        open.Movie,
		TotalFrames:  uint32(movie.TotalFrames()),
		FPS:          uint16(movie.FPS()),
		SessionGroup: group,
		LeaseTTLMs:   ttlMs,
	})
}
