// Package gcs is a from-scratch group communication system providing the
// services the paper obtains from Transis [Amir, Dolev, Kramer, Malki,
// FTCS'92]: named process groups, reliable FIFO multicast within a
// membership view, and agreed membership views delivered to members on
// every change — under crash failures and network partitions.
//
// The design follows the classical partitionable virtual-synchrony
// architecture:
//
//   - a process-level heartbeat failure detector (unreliable, as the paper
//     permits) raises suspicions;
//   - the lowest-ID member of a view coordinates a view change: it proposes
//     a candidate membership, collects each member's message cut, drives
//     retransmission until all members reach a common cut, then installs
//     the new view — so members that survive from one view to the next
//     deliver the same set of messages in the old view (virtual synchrony);
//   - joins and partition merges are the same protocol: a joiner starts as
//     a singleton view and announces itself (presence) to contact
//     addresses; coordinators fold foreign views into the next proposal.
//
// Multicast within a view is sender-FIFO with NAK-driven retransmission;
// delivered-but-unstable messages are retained until an acknowledgement
// vector round establishes stability, and are the source for flush
// recovery.
package gcs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ProcessID identifies a GCS process; it is the process's transport address.
type ProcessID = transport.Addr

// ViewID identifies a membership view. Views are partially ordered by Seq;
// Coord disambiguates views installed concurrently in different partitions.
type ViewID struct {
	Seq   uint64
	Coord ProcessID
}

// String implements fmt.Stringer.
func (v ViewID) String() string { return fmt.Sprintf("%d@%s", v.Seq, v.Coord) }

// View is a membership view of one group.
type View struct {
	Group string
	ID    ViewID
	// Members is sorted ascending. An install allocates it once and every
	// View of that install shares it — the member's own, each OnView
	// callback's, each Member.View result — so it must not be modified.
	Members []ProcessID
}

// Includes reports whether p is a member of the view.
func (v View) Includes(p ProcessID) bool {
	_, ok := v.rank(p)
	return ok
}

// rank returns p's position in the sorted member list: the index every piece
// of per-view protocol state is kept under.
func (v View) rank(p ProcessID) (int, bool) { return slices.BinarySearch(v.Members, p) }

// coordinator returns the member that coordinates view changes: the lowest
// process ID, a deterministic choice every member agrees on.
func (v View) coordinator() ProcessID {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Handlers are the callbacks a group member registers at Join. Callbacks
// run without internal locks held, so they may call back into the GCS
// (Multicast, Leave). They must not block.
type Handlers struct {
	// OnView is invoked when a new view is installed, including the
	// initial singleton view at Join.
	OnView func(v View)

	// OnMessage is invoked for every delivered group message — reliable
	// FIFO multicasts from view members (including the member's own) and
	// anycasts from processes outside the group. The payload must be
	// copied if retained.
	OnMessage func(group string, from ProcessID, payload []byte)
}

// Config configures a Process; Clock and Endpoint are required.
type Config struct {
	Clock    clock.Clock
	Endpoint transport.Endpoint

	// Obs, when set, receives the process's gcs.* counters and trace
	// events (view changes, suspicions, NAK/retransmission activity).
	Obs *obs.Registry
}

// The protocol's timing. No caller ever tuned these, so they are constants.
const (
	// heartbeatInterval is the failure-detector ping period.
	heartbeatInterval = 100 * time.Millisecond
	// suspectTimeout is how long a silent peer stays unsuspected. With the
	// paper's parameters this dominates takeover time.
	suspectTimeout = 500 * time.Millisecond
	// ackInterval is the stability-gossip period.
	ackInterval = 200 * time.Millisecond
	// retransmitInterval is the NAK retry period.
	retransmitInterval = 50 * time.Millisecond
	// presenceInterval is the join/merge announcement period.
	presenceInterval = 250 * time.Millisecond
	// proposalTimeout bounds each view-change phase.
	proposalTimeout = 300 * time.Millisecond

	// tickBase is the period of a process's one ticker, the greatest
	// common divisor of the four periodic intervals; a duty runs on the
	// ticks its divisor divides.
	tickBase   = 50 * time.Millisecond
	hbDiv      = uint64(heartbeatInterval / tickBase)
	ackDiv     = uint64(ackInterval / tickBase)
	retransDiv = uint64(retransmitInterval / tickBase)
	presDiv    = uint64(presenceInterval / tickBase)
)

var (
	// ErrClosed is returned by operations on a closed Process or a left
	// group membership.
	ErrClosed = errors.New("gcs: closed")

	// ErrAlreadyJoined is returned by Join for a group this process is
	// already a member of.
	ErrAlreadyJoined = errors.New("gcs: already joined")
)

// Process is one GCS endpoint: it hosts this node's memberships and runs
// the shared failure detector. All methods are safe for concurrent use.
type Process struct {
	cfg Config
	id  ProcessID
	ctr procCounters

	mu     sync.Mutex
	closed bool
	// members is sorted by group name, the order every fan-out across
	// groups (tick, suspicion, Close) sends packets and queues callbacks
	// in: the simulated network draws from one shared RNG, so an unordered
	// fan-out would randomize seeded runs.
	members []*Member
	fd      detector
	direct  func(from ProcessID, payload []byte)

	// codec holds the inbound decode state (intern table, one envelope
	// per kind). Guarded by p.mu: onPacket decodes under it.
	codec codec

	// bufFree recycles plain-multicast payload buffers (the wrap-on-send
	// and copy-on-receive allocations), bucketed by power-of-two capacity
	// class. A buffer returns to its class when the retaining member
	// garbage-collects it at stability — the point after which no
	// retransmission or delivery can reference it. Allocated on first
	// multicast: lease-only processes (viewers) never pay for the class
	// table. Guarded by p.mu.
	bufFree *bufPool

	// sendBuf frames every packet the process sends under p.mu: Anycast and
	// Send datagrams, and each membership's gossip, multicasts, NAKs and
	// view-change messages. Guarded by p.mu and handed to Endpoint.Send while
	// still held — legal because Send implementations never retain the
	// payload after returning (the transport copy-on-retain rule), and
	// inbound dispatch never runs under another process's p.mu, so the
	// nested lock order is one-way. A site hands its packet to Send for every
	// destination before anything it calls can frame another — across
	// memberships too (the tick, the suspicion fan-out) — so one warm
	// buffer serves them all.
	sendBuf []byte

	// ticker is the process's one standing timer, armed by the first Join
	// (beating says it was) and stopped at Close — a process that never
	// joins a group (a leased viewer) only frames Anycast/Send datagrams and
	// schedules nothing. It beats at born + k*tickBase with tickCount k,
	// whenever the first Join comes: the beat is the one a ticker running since NewProcess would be
	// on, so how long a process waits before it joins moves neither the
	// phase nor the parity of its duties. Each duty — the failure-detector
	// heartbeat plus every membership's ack, retransmit and presence gossip
	// — runs when tickCount is divisible by its divisor, so a server in 50
	// groups holds one timer, not 151. tickCount is guarded by p.mu, the
	// ticker by its own lock; tickScratch is a snapshot of members consumed
	// outside the lock (member ticks relock p.mu themselves), and nil while a
	// tick holds it.
	born        time.Time // NewProcess's instant: beat zero
	beating     bool
	ticker      clock.Periodic
	tickCount   uint64
	tickScratch []*Member
}

// maxBufFree bounds the payload free list (across all classes) so a burst
// does not pin its high-water mark of buffers forever.
const maxBufFree = 256

// Capacity classes for the payload free list: powers of two from 64 B
// (class 0) to 4 MiB. Small heartbeat-sized wraps and multi-kilobyte
// state-sync payloads interleave on the same process, so a single stack
// with a top-only capacity check misses constantly — a small buffer on top
// hides every larger one beneath it. Bucketing by class makes reuse exact.
const (
	bufClassMin = 6  // 1<<6 = 64 B, the smallest pooled capacity
	bufClasses  = 17 // up to 1<<(bufClassMin+bufClasses-1) = 4 MiB
)

// bufClassFor returns the class whose buffers all have capacity ≥ n, or
// bufClasses if n exceeds the largest pooled size.
func bufClassFor(n int) int {
	c := 0
	for n > 1<<(bufClassMin+c) && c < bufClasses {
		c++
	}
	return c
}

// bufPool is the per-process payload free list: one stack per capacity
// class plus the shared entry count that maxBufFree bounds.
type bufPool struct {
	class [bufClasses][][]byte
	n     int
}

// getBufLocked returns an empty buffer with at least n bytes of capacity,
// reusing a recycled payload buffer when one is large enough: the request's
// own class first, then the next larger ones. Fresh allocations round up to
// a power of two — state-sync payloads grow steadily as viewers join, and
// exact-size allocation would make every request miss the pool by a few
// bytes forever.
func (p *Process) getBufLocked(n int) []byte {
	if pool := p.bufFree; pool != nil {
		for c := bufClassFor(n); c < bufClasses; c++ {
			if k := len(pool.class[c]); k > 0 {
				b := pool.class[c][k-1]
				pool.class[c][k-1] = nil
				pool.class[c] = pool.class[c][:k-1]
				pool.n--
				return b[:0]
			}
		}
	}
	c := 1 << bufClassMin
	for c < n {
		c *= 2
	}
	return make([]byte, 0, c)
}

// putBufLocked recycles a payload buffer into its capacity class. Callers
// must guarantee no alias of b survives: the only caller is stability
// garbage collection of plain payloads, whose handler callbacks fired
// strictly earlier. A buffer files under the largest class it fully covers,
// so a get from that class always satisfies its request.
func (p *Process) putBufLocked(b []byte) {
	if cap(b) < 1<<bufClassMin {
		return
	}
	if p.bufFree == nil {
		p.bufFree = &bufPool{}
	}
	if p.bufFree.n >= maxBufFree {
		return
	}
	c := 0
	for c+1 < bufClasses && cap(b) >= 1<<(bufClassMin+c+1) {
		c++
	}
	p.bufFree.class[c] = append(p.bufFree.class[c], b[:0])
	p.bufFree.n++
}

// procCounters are the protocol counters, resolved once at NewProcess so
// updates on lock-held paths stay a single atomic add.
type procCounters struct {
	suspicions  *obs.Counter // gcs.fd_suspicions
	viewChanges *obs.Counter // gcs.view_changes (installs, beyond the singleton)
	flushRounds *obs.Counter // gcs.flush_rounds (entries into the flush phase)
	naksSent    *obs.Counter // gcs.naks_sent (gap-repair requests)
	retransmits *obs.Counter // gcs.retransmissions (messages re-sent on NAK)
}

// NewProcess creates a Process on cfg.Endpoint. Its ticker and failure
// detector start with the first Join: until then there is nobody to watch.
// The ticker's beat is counted from now all the same. The caller must
// eventually Close it.
func NewProcess(cfg Config) *Process {
	p := &Process{
		cfg:  cfg,
		id:   cfg.Endpoint.Addr(),
		born: cfg.Clock.Now(),
		ctr: procCounters{
			suspicions:  cfg.Obs.Counter("gcs.fd_suspicions"),
			viewChanges: cfg.Obs.Counter("gcs.view_changes"),
			flushRounds: cfg.Obs.Counter("gcs.flush_rounds"),
			naksSent:    cfg.Obs.Counter("gcs.naks_sent"),
			retransmits: cfg.Obs.Counter("gcs.retransmissions"),
		},
	}
	p.fd.p = p
	cfg.Endpoint.SetHandler(p.onPacket)
	return p
}

// tick is one beat of the process's ticker. Duties run in a fixed order at
// coincident ticks — heartbeat first, then per-membership gossip in group
// order, ack before retransmit before presence within a membership.
func (p *Process) tick() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.tickCount++
	n := p.tickCount
	var run []*Member
	if n%ackDiv == 0 || n%retransDiv == 0 || n%presDiv == 0 {
		// Snapshot into the dedicated scratch: member ticks retake p.mu
		// themselves, so the snapshot outlives this critical section, and
		// each tick self-guards on m.active if a membership deactivates in
		// between. The tick holds the scratch until it is done: on a real
		// clock the next beat can start while this one runs, and it then
		// finds none and builds its own.
		run = append(p.tickScratch[:0], p.members...)
		p.tickScratch = nil
	}
	p.mu.Unlock()
	if n%hbDiv == 0 {
		p.heartbeatTick()
	}
	for _, m := range run {
		if n%ackDiv == 0 {
			m.ackTick()
		}
		if n%retransDiv == 0 {
			m.retransTick()
		}
		if n%presDiv == 0 {
			m.presenceTick()
		}
	}
	if run != nil {
		p.mu.Lock()
		p.tickScratch = run
		p.mu.Unlock()
	}
}

// ID returns this process's identifier (its transport address).
func (p *Process) ID() ProcessID { return p.id }

// Join makes this process a member of group. The membership starts as a
// singleton view (delivered via h.OnView) and then merges with any views
// reachable through the contact processes. Contacts are also re-announced
// periodically, so a partitioned group re-merges once links heal.
func (p *Process) Join(group string, h Handlers, contacts ...ProcessID) (*Member, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	i, ok := p.groupIndexLocked(group)
	if ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: group %q", ErrAlreadyJoined, group)
	}
	if !p.beating {
		// First membership: now there are peers to watch. The ticker takes
		// up the beat at the count it would have reached by now, and keeps
		// it after the last Leave. Armed under p.mu, so Close either sees the
		// ticker or has already failed this Join.
		p.beating = true
		age := p.cfg.Clock.Now().Sub(p.born)
		p.tickCount = uint64(age / tickBase)
		p.ticker.Start(p.cfg.Clock, tickBase-age%tickBase, tickBase, p.tick)
	}
	m := newMember(p, group, h, contacts)
	p.members = slices.Insert(p.members, i, m)
	var cb callbacks
	m.installSingletonLocked(&cb)
	p.mu.Unlock()
	cb.run()
	return m, nil
}

// Anycast delivers payload to the group member hosted at target, as a
// group message from this process. This is how a process outside a group
// talks to "the abstract group" (the paper's clients contacting the VoD
// server group) — delivery is best-effort, like the UDP it rides on.
func (p *Process) Anycast(target ProcessID, group string, payload []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	pkt := appendAnycast(p.sendBuf[:0], &msgAnycast{group: group, payload: payload})
	p.sendBuf = pkt[:0]
	err := p.cfg.Endpoint.Send(target, pkt)
	p.mu.Unlock()
	return err
}

// Send delivers payload to target's direct handler — a plain datagram
// between GCS processes, outside any group (used for point-to-point
// replies such as the VoD OpenReply).
func (p *Process) Send(target ProcessID, payload []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	pkt := appendDirect(p.sendBuf[:0], &msgDirect{payload: payload})
	p.sendBuf = pkt[:0]
	err := p.cfg.Endpoint.Send(target, pkt)
	p.mu.Unlock()
	return err
}

// SetDirectHandler installs the handler for Send datagrams.
func (p *Process) SetDirectHandler(h func(from ProcessID, payload []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.direct = h
}

// Close stops the process: all memberships cease without graceful leave
// (peers will detect the silence), timers stop, and the endpoint handler
// is detached.
func (p *Process) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	members := p.members
	p.members = nil // detached, so each deactivation leaves it alone
	for _, m := range members {
		m.deactivateLocked()
	}
	p.mu.Unlock()
	p.ticker.Stop()
	p.cfg.Endpoint.SetHandler(nil)
}

// heartbeatTick drives the failure detector.
func (p *Process) heartbeatTick() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.fd.watchLocked()
	var cb callbacks
	for _, s := range p.fd.checkLocked() {
		p.ctr.suspicions.Inc()
		p.cfg.Obs.Emit(obs.GCSSuspect, string(s), "", 0, 0)
		// Suspicion handling sends packets and queues callbacks, so it runs
		// in group order.
		for _, m := range p.members {
			m.onSuspicionLocked(s, &cb)
		}
	}
	p.mu.Unlock()
	cb.run()
	// The heartbeats follow the callbacks, as a member's sends do. Only the
	// next watchLocked changes who is watched.
	p.mu.Lock()
	for _, e := range p.fd.peers {
		if e.watched {
			_ = p.cfg.Endpoint.Send(e.id, encodeHeartbeat())
		}
	}
	p.mu.Unlock()
}

// onPacket is the transport inbound handler. It decodes under p.mu, into
// the codec's envelope for the kind, and dispatches before it releases the
// lock; deferred callbacks capture payloads, which alias the receive buffer,
// never the envelope.
func (p *Process) onPacket(from ProcessID, payload []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	msg, err := p.codec.decodeLocked(payload)
	if err != nil {
		p.mu.Unlock()
		return // corrupt or alien datagram; drop like UDP noise
	}
	p.fd.heardLocked(from)

	var cb callbacks
	switch msg := msg.(type) {
	case *msgHeartbeat:
		// Liveness already recorded above.
	case *msgDirect:
		if h := p.direct; h != nil {
			cb.addDirect(h, from, msg.payload)
		}
	case *msgAnycast:
		if m := p.memberLocked(msg.group); m != nil && m.active {
			if h := m.handlers.OnMessage; h != nil {
				cb.addMsg(h, msg.group, from, msg.payload)
			}
		}
	default:
		if g, ok := groupOf(msg); ok {
			if m := p.memberLocked(g); m != nil && m.active {
				m.onMessageLocked(from, msg, &cb)
			}
		}
	}
	p.mu.Unlock()
	cb.run()
}

// callbacks collects application callbacks while the process lock is held,
// to run after it is released: handlers may re-enter the GCS.
//
// Every shape — view, message and direct handlers — is stored as a typed
// entry rather than a closure, so queuing a callback allocates nothing. The
// backing array is pooled: run returns it once the entries have fired.
type callbacks struct {
	backing *[]cbEntry
	entries []cbEntry
}

// cbEntry is one queued callback. Exactly one of viewH, msgH, dirH is set.
type cbEntry struct {
	viewH  func(View)
	view   View
	msgH   func(group string, from ProcessID, payload []byte)
	dirH   func(from ProcessID, payload []byte)
	group  string
	sender ProcessID
	data   []byte
}

var cbSlicePool = sync.Pool{New: func() any {
	s := make([]cbEntry, 0, 8)
	return &s
}}

func (c *callbacks) push(e cbEntry) {
	if c.backing == nil {
		c.backing = cbSlicePool.Get().(*[]cbEntry)
		c.entries = (*c.backing)[:0]
	}
	c.entries = append(c.entries, e)
}

func (c *callbacks) addView(h func(View), v View) { c.push(cbEntry{viewH: h, view: v}) }

func (c *callbacks) addMsg(h func(string, ProcessID, []byte), group string, sender ProcessID, data []byte) {
	c.push(cbEntry{msgH: h, group: group, sender: sender, data: data})
}

func (c *callbacks) addDirect(h func(ProcessID, []byte), sender ProcessID, data []byte) {
	c.push(cbEntry{dirH: h, sender: sender, data: data})
}

func (c *callbacks) run() {
	if c.backing == nil {
		return
	}
	for i := range c.entries {
		e := &c.entries[i]
		switch {
		case e.viewH != nil:
			e.viewH(e.view)
		case e.msgH != nil:
			e.msgH(e.group, e.sender, e.data)
		default:
			e.dirH(e.sender, e.data)
		}
	}
	// Handlers may have re-entered the GCS, but any nested callbacks drew
	// their own backing from the pool, so this one is ours to return.
	clear(c.entries)
	*c.backing = c.entries[:0]
	cbSlicePool.Put(c.backing)
	c.backing, c.entries = nil, nil
}

// sortedIDs returns a sorted copy of ids with duplicates removed.
func sortedIDs(ids []ProcessID) []ProcessID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// groupIndexLocked returns group's position in members, or where it would go.
func (p *Process) groupIndexLocked(group string) (int, bool) {
	return slices.BinarySearchFunc(p.members, group, func(m *Member, g string) int { return strings.Compare(m.group, g) })
}

// memberLocked returns the membership of group, or nil. Caller holds p.mu.
func (p *Process) memberLocked(group string) *Member {
	if i, ok := p.groupIndexLocked(group); ok {
		return p.members[i]
	}
	return nil
}
