// Package client implements the paper's VoD client: it contacts the
// abstract server group to open a movie (never a particular server), joins
// its per-session group for control traffic, buffers arriving frames
// through the two-level pipeline of package buffer, displays at the movie's
// frame rate, and drives the Figure 2 flow-control policy. The client is
// deliberately oblivious to which server is transmitting — server crashes
// and migrations are invisible except as brief buffer-occupancy dips.
package client

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/congress"
	"repro/internal/flowctl"
	"repro/internal/gcs"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// State is the client's session lifecycle state.
type State int

// The client states.
const (
	StateIdle State = iota + 1
	StateOpening
	StateWatching
	StateFinished // the whole movie has been displayed
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOpening:
		return "opening"
	case StateWatching:
		return "watching"
	case StateFinished:
		return "finished"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config configures a Client.
type Config struct {
	// ID is the client's name and transport address.
	ID string
	// Clock and Network supply the runtime environment.
	Clock   clock.Clock
	Network transport.Network
	// Servers is the bootstrap list of VoD server addresses. The client
	// anycasts its Open to them in turn until one responds. May be empty
	// when Directory is set. The client retains the slice read-only, so
	// one list can back any number of clients; callers must not mutate it
	// after New.
	Servers []string
	// Directory, when set, is a CONGRESS directory address: at Watch time
	// the client resolves the server-group name there instead of (or in
	// addition to) the static Servers list — the client stays oblivious
	// to server identities, as §5.1 requires.
	Directory string
	// Flow sizes the two-level pipeline (Flow.Buffer) and sets the
	// flow control that steers by it (paper defaults if zero).
	Flow flowctl.Params
	// Class is the traffic class carried on every Open (default reserved;
	// reserved-class Opens are byte-identical to pre-class ones).
	Class wire.Class
	// Placement, when set, is the shared consistent-hash ring of server
	// IDs, and switches the client to two-tier membership (DESIGN §12): it
	// never joins its session group — instead it leases its session from
	// the serving server, renewing every TTL/3 on the injected clock.
	// Flow control and VCR commands go point-to-point to that server, and
	// a full TTL of ack silence triggers the same Open re-anycast as
	// playback starvation, with the takeover flag set. The video path is
	// unchanged (frames were always point-to-point). The Open anycast
	// walks servers in the movie's ring order, so the first probe normally
	// lands on the owner and the first takeover retry on its successor.
	Placement *placement.Ring
	// Obs, when set, receives the client.* counters, occupancy gauges and
	// trace events, and is forwarded to the embedded GCS process.
	Obs *obs.Registry
}

// Recovery timing. No caller ever tuned these, so they are constants.
const (
	// openTimeout is how long to wait for an OpenReply before trying the
	// next server. Each further retry doubles the wait, up to
	// openBackoffCap, plus up to 25% deterministic jitter seeded from the
	// client ID — so a fleet of clients cut off by the same fault does not
	// retry in lockstep.
	openTimeout = time.Second
	// openBackoffCap bounds the open-retry backoff.
	openBackoffCap = 8 * time.Second
	// starveTimeout is how long playback may fail to progress (while
	// watching, unpaused and unfinished) before the client decides its
	// session is dead — a crashed-and-gone server, a network partition —
	// and re-anycasts the Open to the server group. The re-anycast reaches
	// whichever server now owns (or adopts) the session, and a Seek
	// resynchronizes the stream to the client's position.
	starveTimeout = 3 * time.Second
	// refusalBackoff is the wait after the first refused Open in a cycle:
	// the next server in the list may have room. Each consecutive refusal
	// doubles the wait up to refusalBackoffCap, with 25% seeded jitter
	// after the first; a Retry-After hint from the server sets the floor.
	// Refusals are answers, not timeouts, so this schedule is separate
	// from the openTimeout no-reply backoff.
	refusalBackoff = 10 * time.Millisecond
	// refusalBackoffCap bounds the refusal backoff.
	refusalBackoffCap = 2 * time.Second
)

func (c *Config) fillDefaults() error {
	if c.ID == "" || c.Clock == nil || c.Network == nil {
		return fmt.Errorf("client: ID, Clock and Network are required")
	}
	if len(c.Servers) == 0 && c.Directory == "" {
		return fmt.Errorf("client %s: no servers and no directory configured", c.ID)
	}
	if c.Flow == (flowctl.Params{}) {
		c.Flow = flowctl.DefaultParams()
	}
	return c.Flow.Validate()
}

// Stats counts the client's control-plane activity.
type Stats struct {
	OpensSent       uint64 // Open anycasts (including retries)
	OpenRetries     uint64 // the retries among them (timer-driven re-sends)
	OpenRefusals    uint64 // OK=false OpenReplies received (admission refusals)
	Reopens         uint64 // starvation-triggered session re-establishments
	FlowSent        uint64 // flow-control requests multicast
	EmergenciesSent uint64 // the emergency requests among them
	VCRSent         uint64 // VCR commands multicast
}

// Client is one VoD client instance. It is 1,000 bytes on 64-bit
// platforms: with the runtime's 8-byte allocation header it sits in the
// 1,024-byte size class with 16 bytes to spare, and a word past them costs
// 128 per viewer (+1.9 MB on the scale table's 15,000 viewers).
type Client struct {
	cfg  Config
	mux  *transport.Mux
	proc *gcs.Process
	vid  transport.Endpoint

	resolver *congress.Resolver

	// The lifecycle fields (state, paused, reopening, openAttempt, refusals,
	// openTimer, serving, keeper) are written only by New, Pause, Resume and
	// the edges: startLocked, sendOpen, refusedLocked, acceptLocked,
	// reopenLocked, onSessionView, displayTick's finish and stopLocked.
	mu          sync.Mutex
	state       State
	closed      bool
	movie       string
	servers     []string // current server list (static + resolved)
	totalFrames uint32
	fps         int
	pipeline    *buffer.Pipeline
	policy      *flowctl.Policy
	session     *gcs.Member
	displayTask clock.Periodic
	openTimer   clock.Timer
	serverIdx   int
	paused      bool
	stats       Stats

	// Open-retry backoff and starvation-recovery state. rng supplies the
	// retry jitter, seeded from the client ID so virtual-clock runs are
	// deterministic while distinct clients desynchronize. It is created
	// lazily at the first draw (rngLocked): a healthy viewer never retries,
	// and the generator's ~5 KB state times ten thousand viewers was a
	// measurable slice of the scale table's footprint.
	rng         *rand.Rand
	openAttempt int  // timer-driven retries since the last reply
	refusals    int  // consecutive refused Opens in this open cycle
	reopening   bool // a starvation re-anycast is in flight
	// seeking is set by a Seek until a frame arrives that is not far ahead
	// of the new position; until then, far-future frames are the old
	// position's in-flight stream and are dropped, as while reopening.
	seeking bool
	// strayFrames counts the frames so dropped (client.stray_frames).
	strayFrames uint64
	// viewServer is the first server in the session group's current view:
	// the one holding the session, or the one that just took it over. A
	// reopen targets it before falling back to the bootstrap list. Always
	// empty for a leased client, which has no session group.
	viewServer gcs.ProcessID
	starveTask clock.Periodic
	lastShown  uint64    // Displayed count at the last progress check
	lastMoved  time.Time // when playback last made progress

	// Inter-arrival jitter estimate (RFC 3550-style EWMA over the
	// deviation of consecutive-frame arrival intervals from the nominal
	// frame period) — quantifies §2's "bounded jitter" concern.
	lastArrival time.Time
	lastIndex   uint32
	jitter      time.Duration

	// frameIn is the reusable decode target for inbound video frames,
	// guarded by mu. Nothing past onVideo retains it or its payload, so a
	// warm client decodes a frame with zero allocations (the movie string is
	// reused across the whole session).
	frameIn wire.Frame

	// fcOut/fcEnc build outbound flow-control requests without allocating.
	// They are used only by onVideo, whose invocations are sequential (one
	// transport dispatch goroutine); the encoded packet is fully copied by
	// Multicast before the next frame can arrive.
	fcOut wire.FlowControl
	fcEnc wire.Encoder

	// sendOpenFn is c.sendOpen bound once: the open-retry timer re-arms on
	// every attempt and every refusal, and a fresh method-value closure per
	// arm is pure garbage.
	sendOpenFn func()

	// orIn is the reusable OpenReply decode target, guarded by mu. A client
	// waiting out a full cluster receives a stream of identical at-capacity
	// refusals; decoding them into scratch costs nothing.
	orIn wire.OpenReply

	// Lease-mode state (leased()): the keeper renews the session lease,
	// serving is the server that last accepted our Open (renew/control
	// target), and the scratch fields make the renew path allocation-free.
	// All guarded by mu except the keeper's own internals.
	keeper   *lease.Keeper
	serving  gcs.ProcessID
	ackIn    lease.Ack
	renewOut lease.Renew
	renewBuf []byte
}

// New creates a client bound to its own endpoint. Call Watch to start.
func New(cfg Config) (*Client, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ep, err := cfg.Network.NewEndpoint(transport.Addr(cfg.ID))
	if err != nil {
		return nil, fmt.Errorf("client %s: %w", cfg.ID, err)
	}
	mux := transport.NewMux(ep)
	c := &Client{
		cfg: cfg,
		mux: mux,
		proc: gcs.NewProcess(gcs.Config{
			Clock:    cfg.Clock,
			Endpoint: mux.Channel(transport.ChannelGCS),
			Obs:      cfg.Obs,
		}),
		vid:      mux.Channel(transport.ChannelVideo),
		state:    StateIdle,
		servers:  cfg.Servers,
		pipeline: buffer.New(cfg.Flow.Buffer),
		policy:   flowctl.NewPolicy(cfg.Flow),
	}
	// A nil registry would drop the source anyway; the guard saves an
	// unobserved viewer the method value's allocation.
	if cfg.Obs != nil {
		cfg.Obs.Source(c.report)
	}
	if cfg.Directory != "" {
		c.resolver = congress.NewResolver(cfg.Clock,
			mux.Channel(transport.ChannelDirectory), transport.Addr(cfg.Directory))
	}
	c.sendOpenFn = c.sendOpen
	c.vid.SetHandler(c.onVideo)
	c.proc.SetDirectHandler(c.onDirect)
	return c, nil
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.cfg.ID }

// Watch requests the movie from the VoD service. The client joins its
// session group first — the serving server joins the same group to form
// the two-way connection — then anycasts the Open to the server group. A
// stopped or finished client may watch again; a closed one may not.
func (c *Client) Watch(movieID string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("client %s: closed", c.cfg.ID)
	}
	if c.state == StateOpening || c.state == StateWatching {
		c.mu.Unlock()
		return fmt.Errorf("client %s: cannot watch in state %v", c.cfg.ID, c.state)
	}
	c.startLocked(movieID)
	rejoined := c.session != nil // finished-then-rewatch: still a member
	c.mu.Unlock()

	if !rejoined && !c.leased() {
		session, err := c.proc.Join(wire.SessionGroup(c.cfg.ID), gcs.Handlers{OnView: c.onSessionView})
		if err != nil {
			return fmt.Errorf("client %s: joining session group: %w", c.cfg.ID, err)
		}
		c.mu.Lock()
		c.session = session
		c.mu.Unlock()
	}

	if c.resolver != nil {
		c.resolveThenOpen()
	} else {
		c.sendOpen()
	}
	return nil
}

// startLocked is the open-cycle start edge. The pipeline and policy are reset
// in place, so a fleet cycling through titles — or a chaos harness restarting
// viewers — pays their allocations once, in New. The reply and frame decode
// targets start the cycle holding the title asked for, so decoding a reply
// or frame that names it keeps that string rather than building its own.
// Caller holds c.mu.
func (c *Client) startLocked(movieID string) {
	c.state = StateOpening
	c.movie = movieID
	c.orIn.Movie, c.frameIn.Movie = movieID, movieID
	c.pipeline.Reset(0)
	c.policy.Reset(c.cfg.Flow)
	c.paused, c.reopening, c.seeking = false, false, false
	c.openAttempt, c.refusals = 0, 0
	if c.leased() {
		c.serving = ""
		c.orderServersLocked()
	}
}

// leased reports whether the client is in lease mode: it is exactly when
// it has a placement ring.
func (c *Client) leased() bool { return c.cfg.Placement != nil }

// resolveThenOpen asks the directory for the server group's live members
// before opening. Failures fall back to the static list (if any) or retry.
func (c *Client) resolveThenOpen() {
	c.resolver.Resolve(wire.ServerGroup, 5, c.applyResolved)
}

// applyResolved installs a directory answer as the anycast server list
// and opens. A leased client puts the live servers in the movie's ring
// order, so its first Open goes to the live primary owner. An empty answer
// falls back to the static list, or re-asks the directory after a beat (no
// server may have registered yet).
func (c *Client) applyResolved(addrs []transport.Addr) {
	c.mu.Lock()
	if !c.openActiveLocked() {
		c.mu.Unlock()
		return
	}
	switch {
	case len(addrs) > 0:
		resolved := make([]string, 0, len(addrs))
		for _, a := range addrs {
			resolved = append(resolved, string(a))
		}
		if c.leased() {
			// A ring walk over the live servers is the full walk with the
			// dead ones skipped: the owners come first, in ring order.
			order := c.cfg.Placement.Order(c.movie)
			rank := func(s string) int {
				if i := slices.Index(order, s); i >= 0 {
					return i
				}
				return len(order)
			}
			slices.SortStableFunc(resolved, func(a, b string) int { return rank(a) - rank(b) })
		}
		// Resolved servers first — they are known live — then any
		// static fallbacks not already listed.
		for _, s := range c.cfg.Servers {
			if !slices.Contains(resolved, s) {
				resolved = append(resolved, s)
			}
		}
		c.servers = resolved
		c.serverIdx = 0
	case len(c.cfg.Servers) > 0:
		c.servers = c.cfg.Servers
		c.orderServersLocked()
	default:
		c.mu.Unlock()
		// Nothing to try yet: the directory may be empty because no
		// server registered; ask again shortly.
		clock.Schedule(c.cfg.Clock, time.Second, c.resolveThenOpen)
		return
	}
	c.mu.Unlock()
	c.sendOpen()
}

// orderServersLocked reorders the anycast list by the movie's consistent-
// hash placement: ring owners in order, then any bootstrap servers not on
// the ring. The first Open probe lands on the owner, and a takeover retry
// walks to its successor. A client without a ring keeps its list. Caller
// holds c.mu.
func (c *Client) orderServersLocked() {
	ring := c.cfg.Placement
	if ring == nil || ring.Len() == 0 {
		return
	}
	// Order returns a cached slice shared by every client of the movie;
	// c.servers is only ever read or reassigned whole, so aliasing it is
	// safe — but it must be copied before appending off-ring bootstraps.
	ordered := ring.Order(c.movie)
	shared := true
	for _, s := range c.cfg.Servers {
		if !slices.Contains(ordered, s) {
			if shared {
				ordered = append(make([]string, 0, len(ordered)+len(c.cfg.Servers)), ordered...)
				shared = false
			}
			ordered = append(ordered, s)
		}
	}
	c.servers = ordered
	c.serverIdx = 0
}

// rngLocked returns the client's jitter RNG, creating it on first use. The
// seed is a pure function of the client ID, so lazy creation draws the
// exact sequence the eager generator drew. Caller holds c.mu.
func (c *Client) rngLocked() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(seedFrom(c.cfg.ID)))
	}
	return c.rng
}

// seedFrom derives a deterministic RNG seed from an identity string.
func seedFrom(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64())
}

// openActiveLocked reports whether an Open anycast cycle should proceed:
// either the initial open, or a starvation-triggered reopen mid-watch.
// Caller holds c.mu.
func (c *Client) openActiveLocked() bool {
	return c.state == StateOpening || (c.state == StateWatching && c.reopening)
}

// openDelayLocked computes the wait before the next Open retry: openTimeout
// doubled per consecutive attempt, capped, with up to 25% jitter on retries.
// The first attempt waits exactly openTimeout, so a healthy open is as
// prompt as ever. Caller holds c.mu.
func (c *Client) openDelayLocked() time.Duration {
	d := clock.Backoff(openTimeout, openBackoffCap, c.openAttempt)
	if c.openAttempt > 0 {
		d += time.Duration(c.rngLocked().Int63n(int64(d)/4 + 1))
	}
	return d
}

// refusedLocked is the refusal edge: this server cannot serve the movie or
// refused admission, so the retry timer tries the next one. The first refusal
// in a cycle waits exactly refusalBackoff with no jitter draw (so a lone
// refusal perturbs nothing); consecutive refusals double the wait up to
// refusalBackoffCap with 25% seeded jitter, and the Retry-After hint of the
// server, which knows its own load, sets the floor. Caller holds c.mu.
func (c *Client) refusedLocked(hintMs uint32) {
	c.stats.OpenRefusals++
	d := clock.Backoff(refusalBackoff, refusalBackoffCap, c.refusals)
	if hint := time.Duration(hintMs) * time.Millisecond; d < hint {
		d = hint
	}
	if c.refusals > 0 || hintMs != 0 {
		d += time.Duration(c.rngLocked().Int63n(int64(d)/4 + 1))
	}
	c.refusals++
	c.armOpenLocked(d)
}

// armOpenLocked arms the open-retry timer to send the next Open after d,
// reusing the previous timer. Caller holds c.mu.
func (c *Client) armOpenLocked(d time.Duration) {
	c.openTimer = clock.Rearm(c.cfg.Clock, c.openTimer, d, c.sendOpenFn)
}

// sendOpen is the open-attempt edge: it anycasts the Open and arms the retry
// timer (capped exponential backoff across consecutive attempts). A reopen
// goes to the session view's server while that server has not refused it;
// otherwise the Open goes to the next bootstrap server in turn.
func (c *Client) sendOpen() {
	c.mu.Lock()
	if !c.openActiveLocked() {
		c.mu.Unlock()
		return
	}
	target := c.viewServer
	if !c.reopening || c.refusals > 0 || target == "" {
		if len(c.servers) == 0 {
			c.mu.Unlock()
			c.resolveThenOpen()
			return
		}
		target = transport.Addr(c.servers[c.serverIdx%len(c.servers)])
		c.serverIdx++
	}
	c.stats.OpensSent++
	if c.openAttempt > 0 {
		c.stats.OpenRetries++
	}
	open := &wire.Open{
		ClientID:   c.cfg.ID,
		ClientAddr: c.cfg.ID,
		Movie:      c.movie,
		Class:      c.cfg.Class,
		Lease:      c.leased(),
		Takeover:   c.leased() && c.reopening,
	}
	c.armOpenLocked(c.openDelayLocked())
	c.openAttempt++
	c.mu.Unlock()

	_ = c.proc.Anycast(target, wire.ServerGroup, wire.Encode(open))
}

// onSessionView records the session view's first server. A view that brings
// a server to a reopening client is the answer to where its session lives
// now, so the Open goes there at once, on a fresh backoff.
func (c *Client) onSessionView(v gcs.View) {
	var server gcs.ProcessID
	for _, m := range v.Members {
		if m != transport.Addr(c.cfg.ID) {
			server = m
			break
		}
	}
	c.mu.Lock()
	brought := server != "" && server != c.viewServer
	c.viewServer = server
	if !brought || c.state != StateWatching || !c.reopening {
		c.mu.Unlock()
		return
	}
	c.openAttempt, c.refusals = 0, 0
	c.mu.Unlock()
	c.sendOpen()
}

// onDirect handles point-to-point replies — the OpenReply, and in lease
// mode the lease Acks confirming our renewals — in the gcs delivery call:
// the payload aliases the receive buffer, and both decodes copy what they
// keep.
func (c *Client) onDirect(from gcs.ProcessID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if payload[0] == lease.KindAck {
		c.onLeaseAck(payload)
		return
	}
	if wire.Kind(payload[0]) != wire.KindOpenReply {
		return
	}
	c.mu.Lock()
	reply := &c.orIn
	if err := wire.DecodeOpenReplyInto(reply, payload); err != nil {
		c.mu.Unlock()
		return
	}
	if reply.Movie != c.movie || !c.openActiveLocked() {
		c.mu.Unlock()
		return
	}
	if !reply.OK {
		c.refusedLocked(reply.RetryAfterMs)
		c.mu.Unlock()
		return
	}
	if !c.acceptLocked(from, reply) {
		c.mu.Unlock()
		return
	}
	// A reopen succeeded: some server (the original one across a healed
	// partition, or a fresh owner) acknowledged the session. Resync its
	// stream position to ours — without the seek a new owner would start
	// from frame zero, and a surviving owner would keep streaming from
	// wherever the partition left it.
	next := c.pipeline.NextIndex()
	paused := c.paused
	c.cfg.Obs.Emit(obs.ClientReopenOK, c.cfg.ID, "", int64(next), 0)
	c.mu.Unlock()
	// Re-assert the playback state before the resync: if an earlier Resume
	// was lost to the same fault that starved us, the server still believes
	// the session is paused and would ignore the Seek's pacing restart.
	if !paused {
		_ = c.Resume()
	}
	_ = c.Seek(next)
}

// acceptLocked is the accept edge: it ends the open cycle, then starts
// playback after a first Open or reports true after a reopen, whose caller
// resyncs the stream. In lease mode the acceptor is the lease holder now; the
// keeper is armed with the reply's TTL or, surviving a reopen, touched: an
// OpenReply proves liveness as well as an Ack does. Caller holds c.mu.
func (c *Client) acceptLocked(from gcs.ProcessID, reply *wire.OpenReply) (reopened bool) {
	c.openAttempt, c.refusals = 0, 0
	clock.Release(c.openTimer)
	c.openTimer = nil
	if c.leased() {
		c.serving = from
		if c.keeper != nil {
			c.keeper.Touch()
		} else {
			ttl := time.Duration(reply.LeaseTTLMs) * time.Millisecond
			c.keeper = lease.NewKeeper(c.cfg.Clock, ttl, c.sendRenew, c.onLeaseLost)
		}
	}
	if c.state == StateWatching {
		c.reopening = false
		return true
	}
	c.state = StateWatching
	c.totalFrames = reply.TotalFrames
	c.fps = int(reply.FPS)
	period := time.Second / time.Duration(c.fps)
	c.displayTask.Start(c.cfg.Clock, period, period, c.displayTick)
	// Arm the starvation watchdog: if playback stops progressing for
	// starveTimeout the session is presumed dead and reopened.
	c.lastShown = 0
	c.lastMoved = c.cfg.Clock.Now()
	c.starveTask.Start(c.cfg.Clock, starveTimeout/4, starveTimeout/4, c.starveTick)
	return false
}

// starveTick is the starvation watchdog: while watching, playback must
// advance the Displayed counter (or be deliberately paused). When it fails
// to for starveTimeout — the serving server died with no peer to take over,
// or a partition separates the client from the whole cluster — the client
// stops waiting on the dead session and re-anycasts the Open to the server
// group, with the same capped backoff as the initial open (§5.1: the
// client knows only the abstract service, so recovery is just asking it
// again).
func (c *Client) starveTick() {
	c.mu.Lock()
	if c.state != StateWatching {
		c.mu.Unlock()
		return
	}
	now := c.cfg.Clock.Now()
	shown := c.pipeline.Counters().Displayed
	if shown != c.lastShown || c.paused {
		c.lastShown = shown
		c.lastMoved = now
		c.mu.Unlock()
		return
	}
	if c.reopening || now.Sub(c.lastMoved) < starveTimeout {
		c.mu.Unlock()
		return
	}
	c.reopenLocked(obs.ClientReopen)
}

// reopenLocked is the reopen edge: the session is presumed dead, so the Open
// is re-anycast on a fresh backoff schedule and starvation window (event names
// the trigger in the obs trace). It releases the caller's c.mu.
func (c *Client) reopenLocked(event obs.Kind) {
	c.reopening = true
	c.openAttempt, c.refusals = 0, 0
	c.lastMoved = c.cfg.Clock.Now()
	c.stats.Reopens++
	c.cfg.Obs.Emit(event, c.cfg.ID, "", int64(c.pipeline.NextIndex()), 0)
	c.mu.Unlock()
	c.sendOpen()
}

// onLeaseAck records the server's lease confirmation.
func (c *Client) onLeaseAck(payload []byte) {
	c.mu.Lock()
	k := c.keeper
	if k == nil || lease.DecodeAckInto(&c.ackIn, payload) != nil ||
		c.ackIn.ClientID != c.cfg.ID {
		c.mu.Unlock()
		return
	}
	seq := c.ackIn.Seq
	c.mu.Unlock()
	k.Ack(seq)
}

// sendRenew transmits one lease renewal to the serving server (keeper
// callback, called without the keeper lock). Renewals continue after the
// movie finishes — the session stays leased until StopWatching or Close
// releases it — but stop in any other state.
func (c *Client) sendRenew(seq uint64) {
	c.mu.Lock()
	serving := c.serving
	if serving == "" || (c.state != StateWatching && c.state != StateFinished) {
		c.mu.Unlock()
		return
	}
	c.renewOut.ClientID = c.cfg.ID
	c.renewOut.Seq = seq
	pkt := lease.AppendRenew(c.renewBuf[:0], &c.renewOut)
	c.renewBuf = pkt[:0]
	// Send under c.mu: the gcs process never calls back into the client
	// while holding its own lock, so the order c.mu -> proc is one-way;
	// and pkt aliases renewBuf, which the next renewal reuses.
	_ = c.proc.Send(serving, pkt)
	c.mu.Unlock()
}

// onLeaseLost fires when a full TTL passes without an Ack: the serving
// server (or the path to it) is gone. Recovery is exactly the starvation
// path — re-anycast the Open, takeover flag set — but it triggers on
// control-plane silence, typically well before the playback buffer runs
// dry and the starvation watchdog would notice.
func (c *Client) onLeaseLost() {
	c.mu.Lock()
	if c.state != StateWatching || c.reopening {
		c.mu.Unlock()
		return
	}
	c.reopenLocked(obs.ClientLeaseLost)
}

// onVideo handles an arriving video frame: buffer it and run the flow
// control policy on the new occupancy.
func (c *Client) onVideo(_ transport.Addr, payload []byte) {
	c.mu.Lock()
	// Decode into the per-client scratch frame (under mu: concurrent
	// deliveries are possible on a real clock). Non-frame or malformed
	// datagrams on the video channel are dropped, as before.
	frame := &c.frameIn
	if err := wire.DecodeFrameInto(frame, payload); err != nil {
		c.mu.Unlock()
		return
	}
	if c.state != StateWatching || frame.Movie != c.movie {
		c.mu.Unlock()
		return
	}
	if c.reopening || c.seeking {
		// While renegotiating a starved session, a far-future frame is a
		// server streaming into the void of the old one (it kept
		// transmitting across the partition); after a backward Seek, it is
		// the old position's stream still in flight. Accepting it would
		// jump playback past every frame in between. Drop it — the Seek
		// rewinds the server to our position instead.
		next := c.pipeline.NextIndex()
		if frame.Index >= next && frame.Index-next > uint32(4*c.cfg.Flow.Buffer.SoftwareCapacity) {
			c.strayFrames++
			c.mu.Unlock()
			return
		}
		c.seeking = false
	}
	now := c.cfg.Clock.Now()
	if c.fps > 0 && frame.Index == c.lastIndex+1 && !c.lastArrival.IsZero() {
		dev := now.Sub(c.lastArrival) - time.Second/time.Duration(c.fps)
		if dev < 0 {
			dev = -dev
		}
		c.jitter += (dev - c.jitter) / 16
	}
	c.lastArrival, c.lastIndex = now, frame.Index

	c.pipeline.Insert(buffer.FrameMeta{
		Index: frame.Index,
		Class: frame.Class,
		Size:  len(frame.Payload),
	})
	occ := c.pipeline.Occupancy()
	kind, due := c.policy.OnFrame(occ.CombinedFrames, occ.SoftwareFrames)
	var pkt []byte
	session := c.session
	serving := c.serving
	if due && (session != nil || serving != "") {
		c.stats.FlowSent++
		if kind == wire.FlowEmergencyMajor || kind == wire.FlowEmergencyMinor {
			c.stats.EmergenciesSent++
			c.cfg.Obs.Emit(obs.ClientEmergency, c.cfg.ID, "", int64(occ.CombinedFrames), 0)
		}
		c.fcOut = wire.FlowControl{
			ClientID:  c.cfg.ID,
			Request:   kind,
			Occupancy: uint16(occ.CombinedFrames),
		}
		pkt = c.fcEnc.Encode(&c.fcOut)
	}
	c.mu.Unlock()

	if pkt != nil {
		_ = c.sendControl(session, serving, pkt)
	}
}

// sendControl sends a flow-control or VCR packet into the session group,
// or in lease mode, where there is none, point-to-point to the serving
// server. Caller does not hold c.mu.
func (c *Client) sendControl(session *gcs.Member, serving gcs.ProcessID, pkt []byte) error {
	if session != nil {
		return session.Multicast(pkt)
	}
	return c.proc.Send(serving, pkt)
}

// displayTick consumes one frame at the display rate. When the stream has
// reached the movie's end and the buffers are dry, the session is finished
// — empty ticks after that are not stalls.
func (c *Client) displayTick() {
	c.mu.Lock()
	if c.state != StateWatching || c.paused {
		c.mu.Unlock()
		return
	}
	if c.totalFrames > 0 && c.pipeline.NextIndex() >= c.totalFrames &&
		c.pipeline.Occupancy().CombinedFrames == 0 {
		c.state = StateFinished
		c.displayTask.Stop()
		c.starveTask.Stop()
		c.mu.Unlock()
		return
	}
	c.pipeline.Tick()
	c.mu.Unlock()
}

// sendVCR multicasts a VCR command into the session group — or, in lease
// mode, sends it point-to-point to the serving server.
func (c *Client) sendVCR(op wire.VCROp, arg uint32) error {
	c.mu.Lock()
	session := c.session
	serving := c.serving
	if c.state != StateWatching || (session == nil && serving == "") {
		c.mu.Unlock()
		return fmt.Errorf("client %s: no active session", c.cfg.ID)
	}
	c.stats.VCRSent++
	c.mu.Unlock()
	return c.sendControl(session, serving, wire.Encode(&wire.VCR{ClientID: c.cfg.ID, Op: op, Arg: arg}))
}

// Pause freezes playback and tells the server to stop transmitting.
func (c *Client) Pause() error {
	if err := c.sendVCR(wire.VCRPause, 0); err != nil {
		return err
	}
	c.mu.Lock()
	c.paused = true
	c.mu.Unlock()
	return nil
}

// Resume restarts playback after a Pause.
func (c *Client) Resume() error {
	if err := c.sendVCR(wire.VCRResume, 0); err != nil {
		return err
	}
	c.mu.Lock()
	c.paused = false
	c.mu.Unlock()
	return nil
}

// Seek jumps to the given frame ("arbitrary random access", §3). The
// server snaps the target forward to the next I frame; the local pipeline
// flushes, which triggers the emergency refill exactly as §4.1 describes.
func (c *Client) Seek(frame uint32) error {
	if err := c.sendVCR(wire.VCRSeek, frame); err != nil {
		return err
	}
	c.mu.Lock()
	c.pipeline.Reset(frame)
	c.seeking = true
	// A seek is a new irregularity period: the next critical-threshold
	// crossing must request a fresh emergency refill even if the trigger
	// was spent on a recent dip.
	c.policy.Rearm()
	c.mu.Unlock()
	return nil
}

// SetQuality caps the delivered frame rate (§4.3) — the server keeps all I
// frames and thins the rest, and the local display drops to the same rate
// (a constrained client repeats frames instead of stalling). Pass the
// movie's full rate (or higher) to restore full quality.
//
// Note on counters: frames the server withholds appear as GapSkipped in
// the buffer counters — they are index gaps by design. Compare against the
// server's FramesThinned stat when evaluating quality sessions.
func (c *Client) SetQuality(fps uint16) error {
	if err := c.sendVCR(wire.VCRQuality, uint32(fps)); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fps > 0 {
		rate := int(fps)
		if rate <= 0 || rate > c.fps {
			rate = c.fps
		}
		c.displayTask.SetPeriod(time.Second / time.Duration(rate))
	}
	return nil
}

// StopWatching ends the session gracefully.
func (c *Client) StopWatching() error {
	err := c.sendVCR(wire.VCRStop, 0)
	c.mu.Lock()
	c.stopLocked()
	session := c.session
	c.session = nil
	c.mu.Unlock()
	if session != nil {
		_ = session.Leave()
	}
	return err
}

// Close releases the client entirely. A closed client stays closed: Close
// ends any open cycle, and Watch fails from then on.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.stopLocked()
	c.mu.Unlock()
	c.proc.Close()
	_ = c.mux.Close()
}

// stopLocked is the stop edge: every state but finished becomes stopped,
// which ends any open cycle, and the beats, the open timer and the lease
// keeper stop. Caller holds c.mu; the keeper never calls back holding its own.
func (c *Client) stopLocked() {
	if c.state != StateFinished {
		c.state = StateStopped
	}
	c.displayTask.Stop()
	c.starveTask.Stop()
	clock.Release(c.openTimer)
	c.openTimer = nil
	if c.keeper != nil {
		c.keeper.Stop()
	}
	c.keeper, c.serving = nil, ""
}

// State returns the client's lifecycle state.
func (c *Client) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Counters returns the buffering counters (zero before Watch).
func (c *Client) Counters() buffer.Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipeline.Counters()
}

// Occupancy returns the buffer occupancy snapshot (zero before Watch).
func (c *Client) Occupancy() buffer.Occupancy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipeline.Occupancy()
}

// Stats returns the control-plane counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// report is the client's obs source: it adds every control-plane Stats count
// except OpenRefusals, the pipeline's frame counts and the stray frames under
// the client.* names, and the pipeline's occupancy as gauges.
func (c *Client) report(snap *obs.Snapshot) {
	c.mu.Lock()
	st, stray := c.stats, c.strayFrames
	cnt, occ := c.pipeline.Counters(), c.pipeline.Occupancy()
	c.mu.Unlock()
	n := snap.Counters
	n["client.opens_sent"] += st.OpensSent
	n["client.open_retries"] += st.OpenRetries
	n["client.reopens"] += st.Reopens
	n["client.flow_sent"] += st.FlowSent
	n["client.emergencies_sent"] += st.EmergenciesSent
	n["client.vcr_sent"] += st.VCRSent
	n["client.frames_received"] += cnt.Received
	n["client.stalls"] += cnt.Stalls
	n["client.late_frames"] += cnt.Late
	n["client.skipped_frames"] += cnt.Skipped()
	n["client.stray_frames"] += stray
	g := snap.Gauges
	g["client.sw_occupancy"] += int64(occ.SoftwareFrames)
	g["client.combined_occupancy"] += int64(occ.CombinedFrames)
	g["client.hw_occupancy_bytes"] += int64(occ.HardwareBytes)
}

// Jitter returns the smoothed inter-arrival jitter estimate: how far
// consecutive frames' arrival spacing deviates from the nominal frame
// period. Near zero on an idle LAN; tens of milliseconds on a multi-hop
// best-effort WAN (§2).
func (c *Client) Jitter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jitter
}
