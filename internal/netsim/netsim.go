// Package netsim is a deterministic packet-level network simulator
// implementing transport.Network. It reproduces the operative properties of
// the paper's two testbeds — a 100 Mbps switched-Ethernet LAN and a 7-hop
// Internet WAN — as configurable per-link profiles: propagation delay,
// jitter, loss, duplication and bandwidth (serialization delay). Delivery is
// scheduled on a clock.Clock; with a Virtual clock and a fixed seed, every
// run is exactly reproducible.
//
// Internally every address is interned to a dense integer ID the first time
// it is seen; endpoints, egress queues and per-pair link state live in flat
// slices indexed by ID, so the per-packet send path never hashes an address
// string. Senders that pre-resolve their destination (transport.RefSender)
// skip the one remaining map lookup too. Only the sparse fault
// state — blocked links — stays in an (ID-pair-keyed) map, off the common
// path.
//
// The simulator also provides the fault-injection surface the evaluation
// scenarios need: abrupt node crashes, link failures and network partitions.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Profile describes one direction of a link.
type Profile struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter). Nonzero jitter
	// can reorder packets, as on a multi-hop WAN path.
	Jitter time.Duration
	// Loss is the independent per-packet drop probability in [0, 1].
	Loss float64
	// Duplicate is the per-packet probability of a second delivery.
	Duplicate float64
	// Bandwidth is the link rate in bytes per second; packets queue behind
	// each other for their serialization time. Zero means infinite.
	Bandwidth int64
}

// LAN returns the profile used for the paper's Figure 4 testbed: a lightly
// loaded 100 Mbps switched Ethernet. Sub-millisecond delay, no jitter (so
// no reordering), no loss — the paper reports "we did not encounter message
// loss" and "messages do not arrive out of order".
func LAN() Profile {
	return Profile{
		Delay:     200 * time.Microsecond,
		Bandwidth: 100 * 1000 * 1000 / 8,
	}
}

// WAN returns the profile used for the paper's Figure 5 testbed: the 7-hop
// Internet path between the Hebrew and Tel Aviv Universities, with no QoS
// reservation — tens of milliseconds of delay, jitter-induced reordering
// and sporadic loss ("a certain percentage of the messages are lost").
func WAN() Profile {
	return Profile{
		Delay:     20 * time.Millisecond,
		Jitter:    8 * time.Millisecond,
		Loss:      0.005,
		Bandwidth: 10 * 1000 * 1000 / 8,
	}
}

// Network is a simulated transport.Network.
type Network struct {
	clk clock.Clock

	mu   sync.Mutex
	fate fate
	def  Profile

	// Address interning: ids maps an address to its dense ID; the slices
	// below are all indexed by that ID and grow together. IDs are never
	// reused — a crashed-and-rebound address keeps its ID, so in-flight
	// deliveries reach the new incarnation exactly as before.
	ids        map[transport.Addr]int32
	addrs      []transport.Addr
	eps        []*endpoint // nil = address known but never bound
	egressRate []int64     // shared NIC rate, bytes/s (0 = none)
	egressNext []int64     // when the NIC finishes its queue, unix nanos (≤ now = drained)
	rows       []linkRow   // per-sender serialization state of bandwidth-limited links
	live       int         // endpoints currently open, sizes the sweep period

	// Sparse fault state, keyed by ID pair: empty in a healthy run, so the
	// send path skips the lookup entirely.
	blocked map[idPair]bool

	extraLoss float64 // network-wide additional drop probability (loss burst)
	// Free lists of delivery events (the packet buffer pool), one per
	// record kind: freeD[0] holds bare records, which stable sends alias
	// their payload through and never need a buffer; freeD[1+c] holds
	// records that own a copy buffer of capacity 64<<c. A copied send
	// takes from its own class, so a buffer is never regrown, and a stable
	// send never ties up a buffer it does not use.
	freeD   [1 + bufClasses]*delivery
	slabD   *deliverySlab // newest slab new records are carved from; older ones chain through prev
	slabDN  int           // records already carved from slabD
	slabB   []byte        // what is left of the slab small copy buffers are carved from
	sweepIn int           // sends until the next stale-link sweep

	obs      *obs.Registry
	ctrSent  *obs.Counter // netsim.sent
	ctrDeliv *obs.Counter // netsim.delivered
	ctrDrop  *obs.Counter // netsim.dropped
	ctrBytes *obs.Counter // netsim.delivered_bytes
}

var _ transport.Network = (*Network)(nil)

type idPair struct{ from, to int32 }

// smallRowMax is the destination count at which a sender's link row promotes
// from a linearly scanned pair of small slices to a dense array indexed by
// destination ID. Viewers talk to a handful of servers and stay small; a
// server streaming to thousands of viewers promotes once and then indexes.
const smallRowMax = 16

// linkRow holds one sender's per-destination link serialization horizons
// (unix nanos; ≤ now means the link is drained, same as absent). Small rows
// are parallel slices scanned linearly; rows with many destinations use a
// dense slice indexed by destination ID.
type linkRow struct {
	toIDs []int32
	next  []int64
	dense []int64
}

// bump advances the serialization horizon of the link to `to`: start at
// max(now, nextFree), add ser, store and return the new horizon. ids is the
// current interned-address count, sizing a promoted dense row.
func (r *linkRow) bump(to int32, now, ser int64, ids int) int64 {
	if r.dense != nil {
		if int(to) >= len(r.dense) {
			// Interning assigns IDs monotonically, so a promoted row sees
			// ever-higher destinations while the cluster fills in; grow to a
			// power of two above the current ID count so the row reallocates
			// O(log n) times instead of once per new destination.
			size := len(r.dense) * 2
			for size < ids {
				size *= 2
			}
			grown := make([]int64, size)
			copy(grown, r.dense)
			r.dense = grown
		}
		r.dense[to] = max(r.dense[to], now) + ser
		return r.dense[to]
	}
	for i, t := range r.toIDs {
		if t == to {
			r.next[i] = max(r.next[i], now) + ser
			return r.next[i]
		}
	}
	nf := now + ser
	if len(r.toIDs) < smallRowMax {
		r.toIDs = append(r.toIDs, to)
		r.next = append(r.next, nf)
		return nf
	}
	d := make([]int64, ids)
	for i, t := range r.toIDs {
		d[t] = r.next[i]
	}
	d[to] = nf
	r.dense = d
	r.toIDs, r.next = nil, nil
	return nf
}

// reap drops entries whose serialization queue has drained (horizon ≤ now).
// An idle entry behaves identically to an absent one, so this is invisible
// to the simulation; horizons still in the future are kept — they encode
// real queueing that must survive even the sender's crash (the packets
// already left the NIC).
//
// A row's storage is freed only when release is set (the endpoint is closed)
// and nothing is left in it: the periodic sweep of a live endpoint's row keeps
// the dense array, and truncates a drained small row to length 0, because a
// stale or absent horizon is behaviorally identical either way while freeing
// the storage makes the next send reallocate it — a re-promoted dense row per
// server, two re-grown slices per viewer, every sweep. What a live endpoint
// retains is bounded by its row (≤ smallRowMax entries, or one dense array);
// a closed endpoint retains only horizons still in the future.
func (r *linkRow) reap(now int64, release bool) {
	if r.dense != nil {
		if !release {
			return
		}
		for _, nf := range r.dense {
			if nf > now {
				return
			}
		}
		r.dense = nil
		return
	}
	k := 0
	for i, nf := range r.next {
		if nf > now {
			r.toIDs[k], r.next[k] = r.toIDs[i], nf
			k++
		}
	}
	if k == 0 && release {
		r.toIDs, r.next = nil, nil
		return
	}
	r.toIDs, r.next = r.toIDs[:k], r.next[:k]
}

// New creates a network on clk with the given default link profile. All
// randomness (loss, jitter, duplication) derives from seed.
func New(clk clock.Clock, seed int64, def Profile) *Network {
	n := &Network{clk: clk}
	n.Reset(seed, def)
	return n
}

// Reset returns the network to the state New builds on its clock but keeps
// its delivery records, their copy buffers and its slices' storage. Reset the
// clock first: a delivery still scheduled on it would fire into the new
// world. Reset reports how many endpoints were still open.
func (n *Network) Reset(seed int64, def Profile) (open int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	open = n.live
	if f, ok := n.fate.(seededFate); ok {
		f.rng.Seed(seed) // in place: a fresh source is 4.9 KB
	} else {
		n.fate = seededFate{rand.New(rand.NewSource(seed))}
	}
	n.def = def
	n.ids, n.blocked = make(map[transport.Addr]int32), make(map[idPair]bool)
	clear(n.rows) // a dense row is big, and the next world may never overwrite it
	n.addrs, n.eps, n.rows = n.addrs[:0], n.eps[:0], n.rows[:0]
	n.egressRate, n.egressNext = n.egressRate[:0], n.egressNext[:0]
	n.live, n.extraLoss, n.sweepIn = 0, 0, 0
	n.obs, n.ctrSent, n.ctrDeliv, n.ctrDrop, n.ctrBytes = nil, nil, nil, nil, nil
	n.freeD = [1 + bufClasses]*delivery{}
	for s, k := n.slabD, n.slabDN; s != nil; s, k = s.prev, deliverySlabSize {
		for i := range s.d[:k] {
			s.d[i].recycleLocked()
		}
	}
	return open
}

// internLocked returns the dense ID for addr, assigning the next one (and
// growing every ID-indexed slice) on first sight. Caller holds n.mu.
func (n *Network) internLocked(addr transport.Addr) int32 {
	if id, ok := n.ids[addr]; ok {
		return id
	}
	id := int32(len(n.addrs))
	n.ids[addr] = id
	n.addrs = append(n.addrs, addr)
	n.eps = append(n.eps, nil)
	n.egressRate = append(n.egressRate, 0)
	n.egressNext = append(n.egressNext, 0)
	n.rows = append(n.rows, linkRow{})
	return id
}

// SetObs attaches an observability registry: the network-wide counters are
// mirrored there, and fault injections (crashes, partitions, link failures)
// leave trace events. A nil registry detaches (the counters become nil and
// count nothing).
func (n *Network) SetObs(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs = reg
	n.ctrSent = reg.Counter("netsim.sent")
	n.ctrDeliv = reg.Counter("netsim.delivered")
	n.ctrDrop = reg.Counter("netsim.dropped")
	n.ctrBytes = reg.Counter("netsim.delivered_bytes")
}

// SetEgressLimit caps a node's total outbound rate (bytes/s): all packets
// it sends share one serialization queue, modeling the node's NIC. Per-link
// bandwidth still applies downstream. Zero removes the cap. This is how a
// single video server saturates — its uplink, not any one client's path.
func (n *Network) SetEgressLimit(addr transport.Addr, bytesPerSec int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.egressRate[n.internLocked(addr)] = max(bytesPerSec, 0)
}

// NewEndpoint implements transport.Network. An address whose previous
// endpoint was closed (node crashed or shut down) may be bound again — a
// restarted node reclaiming its port. Datagrams already in flight toward
// the address are delivered to the new incarnation, exactly as late UDP
// packets reach a rebound socket.
func (n *Network) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.internLocked(addr)
	if old := n.eps[id]; old != nil && !old.closed {
		return nil, fmt.Errorf("netsim: bind %q: %w", addr, transport.ErrAddrInUse)
	}
	ep := &endpoint{net: n, addr: addr, id: id}
	n.eps[id] = ep
	n.live++
	return ep, nil
}

// SetLinkDown blocks (or unblocks) traffic in both directions between a
// and b. Packets already in flight still arrive, as on a real network.
func (n *Network) SetLinkDown(a, b transport.Addr, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ai, bi := n.internLocked(a), n.internLocked(b)
	if down {
		n.blocked[idPair{ai, bi}] = true
		n.blocked[idPair{bi, ai}] = true
		n.obs.Emit(obs.NetsimLinkDown, string(a), string(b), 0, 0)
	} else {
		delete(n.blocked, idPair{ai, bi})
		delete(n.blocked, idPair{bi, ai})
		n.obs.Emit(obs.NetsimLinkUp, string(a), string(b), 0, 0)
	}
}

// SetLinkOneWayDown blocks (or unblocks) traffic in the single direction
// from→to, leaving the reverse direction untouched. This is the asymmetric
// split that presence-based merging cannot observe directly (DESIGN §5): A
// hears B but B never hears A.
func (n *Network) SetLinkOneWayDown(from, to transport.Addr, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := idPair{n.internLocked(from), n.internLocked(to)}
	if down {
		n.blocked[key] = true
		n.obs.Emit(obs.NetsimLinkDown, string(from), string(to), obs.OneWay, 0)
	} else {
		delete(n.blocked, key)
		n.obs.Emit(obs.NetsimLinkUp, string(from), string(to), obs.OneWay, 0)
	}
}

// SetExtraLoss adds an independent drop probability in [0, 1] on every link
// on top of each profile's own loss — a network-wide loss burst (congestion
// collapse, a flapping switch). Zero restores normal service. The extra
// loss draws from the same seeded RNG as profile loss, so bursts are
// deterministic; when it is zero no random number is consumed and existing
// schedules replay unchanged.
func (n *Network) SetExtraLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.extraLoss = p
	if p == 0 {
		n.obs.Emit(obs.NetsimLossBurstEnd, "", "", 0, 0)
	} else {
		n.obs.Emit(obs.NetsimLossBurst, "", "", int64(math.Float64bits(p)), 0)
	}
}

// Partition blocks all traffic between nodes in different groups. Nodes not
// listed in any group are unaffected. Partition composes with previously
// blocked links; use Heal to clear everything.
func (n *Network) Partition(groups ...[]transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs.Emit(obs.NetsimPartition, "", "", int64(len(groups)), 0)
	for i := range groups {
		for j := range groups {
			if i == j {
				continue
			}
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					n.blocked[idPair{n.internLocked(a), n.internLocked(b)}] = true
				}
			}
		}
	}
}

// Heal removes every link block and partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs.Emit(obs.NetsimHeal, "", "", 0, 0)
	n.blocked = make(map[idPair]bool)
}

// Crash makes the node at addr fail-stop: its endpoint is closed and all
// packets to or from it are dropped. In-flight packets from the node still
// arrive (they already left the NIC). The address may be bound again with
// NewEndpoint — a cold restart of the node.
func (n *Network) Crash(addr transport.Addr) {
	n.mu.Lock()
	var ep *endpoint
	if id, ok := n.ids[addr]; ok {
		ep = n.eps[id]
	}
	n.obs.Emit(obs.NetsimCrash, string(addr), "", 0, 0)
	n.mu.Unlock()
	if ep != nil {
		_ = ep.Close()
	}
}

// errNoRoute is the one value every send to an unbound address returns.
// Protocols above keep sending to peers that never came up for as long as a
// run lasts and discard the result, so the error is built once, not per
// send; it names no addresses for that reason.
var errNoRoute = fmt.Errorf("netsim: send: %w", transport.ErrNoRoute)

// fate decides what the network does to one admitted packet: how many copies
// of it arrive, and how much random delay each copy picks up on top of its
// link's fixed delay and serialization. It is consulted only after the route,
// block and profile checks, so it never sees a packet the topology already
// dropped. Its methods run under n.mu.
type fate interface {
	// copies reports how many copies of a packet from→to on a link with
	// profile prof arrive, with extraLoss the network-wide burst loss: 0
	// means it is lost, 2 that it is duplicated.
	copies(from, to int32, prof Profile, extraLoss float64) int
	// jitter returns the random part of one copy's delay, in [0,
	// prof.Jitter). It is called once per copy, in the order the copies are
	// scheduled, and only on a jittered link.
	jitter(from, to int32, prof Profile) time.Duration
}

// seededFate draws every decision from one seeded RNG, per packet in a fixed
// order: profile loss, burst loss, duplicate, then one jitter per copy. A
// probability of zero consumes no draw, so a loss-free run replays the same
// stream whatever else changes.
type seededFate struct{ rng *rand.Rand }

func (f seededFate) copies(_, _ int32, prof Profile, extraLoss float64) int {
	if prof.Loss > 0 && f.rng.Float64() < prof.Loss {
		return 0
	}
	if extraLoss > 0 && f.rng.Float64() < extraLoss {
		return 0
	}
	if prof.Duplicate > 0 && f.rng.Float64() < prof.Duplicate {
		return 2
	}
	return 1
}

func (f seededFate) jitter(_, _ int32, prof Profile) time.Duration {
	return time.Duration(f.rng.Int63n(int64(prof.Jitter)))
}

// sendLocked sends one packet, with both addresses already resolved to IDs:
// it counts the send, checks the route (to may be -1, an address never
// interned, or any out-of-range reference) and the blocks, asks the fate how
// many copies arrive, and puts each copy in flight as its own delivery event
// with its own transit time. A packet it does not admit is counted dropped;
// only an unroutable one also returns an error.
//
// The sender may reuse its buffer after Send returns, as with UDP (the kernel
// copies), so unless the payload is stable each copy takes its own copy
// buffer and the handlers never share backing storage. When stable is true
// the payload is caller-guaranteed immutable and every copy, duplicates
// included, aliases it; admission and timing are identical either way (same
// draws, same serialization on len(payload)), so a run using stable sends
// replays byte-for-byte like one that copies. Caller holds n.mu.
func (n *Network) sendLocked(from, to int32, payload []byte, stable bool) error {
	n.ctrSent.Inc()
	if to < 0 || int(to) >= len(n.eps) || n.eps[to] == nil {
		// Never bound. A crashed node is not this case: its endpoint is
		// kept, closed, and the packet is dropped on delivery.
		n.ctrDrop.Inc()
		return errNoRoute
	}
	if len(n.blocked) > 0 && n.blocked[idPair{from, to}] {
		n.ctrDrop.Inc()
		return nil // silently lost, like a partitioned UDP packet
	}
	copies := n.fate.copies(from, to, n.def, n.extraLoss)
	if copies == 0 {
		n.ctrDrop.Inc()
		return nil
	}
	for i := 0; i < copies; i++ {
		d := n.newDeliveryLocked(from, to, payload, stable)
		clock.Schedule(n.clk, n.transitTimeLocked(from, to, len(payload)), d)
	}
	n.maybeSweepLocked()
	return nil
}

// delivery is one in-flight packet: its payload plus the routing info its
// timer callback needs, and that callback itself, as the clock event's
// Runner. Events cycle through free lists under n.mu so steady-state traffic
// schedules deliveries without allocating; a copy buffer is reused for the
// next packet of its class as soon as the receiving handler returns, which
// is what the transport.Handler copy-on-retain rule licenses.
type delivery struct {
	n        *Network
	from, to int32
	slot     uint8     // its freeD index: 0 = data is a stable alias, 1+c = data is its own buffer of capacity 64<<c
	data     []byte    // what the handler receives
	next     *delivery // free-list link
}

// deliverySlab is one allocation of delivery records, chained for Reset.
type deliverySlab struct {
	d    [deliverySlabSize]delivery
	prev *deliverySlab
}

// deliverySlabSize is how many delivery records one slab allocation carves
// out; with the link, a slab of 56-byte records fills an 8 KB size class. A
// saturated capacity trial holds ≈ 11,600 packets in flight at its peak:
// under eighty slabs.
const deliverySlabSize = 146

// bufClasses is the number of copy-buffer size classes: class c holds
// 64<<c bytes, and the largest holds a MaxDatagram payload.
const bufClasses = 11

// bufClass returns the smallest size class whose buffer holds size bytes.
func bufClass(size int) int {
	return bits.Len(uint(max(size-1, 0))|63) - 6
}

// newDeliveryLocked takes a record off its free list (or carves one from
// the current slab) and loads it with the payload: a direct alias when the
// caller guaranteed the payload immutable, else a copy into a buffer of the
// payload's size class. Caller holds n.mu.
func (n *Network) newDeliveryLocked(from, to int32, payload []byte, stable bool) *delivery {
	slot := 0
	if !stable {
		slot = 1 + bufClass(len(payload))
	}
	d := n.freeD[slot]
	if d == nil {
		d = n.freeD[0]
	}
	if d != nil {
		n.freeD[d.slot] = d.next
		d.next = nil
	} else {
		if n.slabD == nil || n.slabDN == deliverySlabSize {
			n.slabD = &deliverySlab{prev: n.slabD}
			n.slabDN = 0
		}
		d = &n.slabD.d[n.slabDN]
		n.slabDN++
		d.n = n
	}
	d.from, d.to = from, to
	if stable {
		d.data = payload
		return d
	}
	if d.slot == 0 {
		// A bare record gets a buffer of exactly this class, capped so an
		// append can never run into a slab neighbour.
		d.slot = uint8(slot)
		if size := 64 << (slot - 1); size > smallBufMax {
			d.data = make([]byte, 0, size)
		} else {
			if len(n.slabB) < size {
				n.slabB = make([]byte, bufSlabSize)
			}
			d.data, n.slabB = n.slabB[:0:size], n.slabB[size:]
		}
	}
	d.data = append(d.data[:0], payload...)
	return d
}

// bufSlabSize is the byte slab copy buffers of up to smallBufMax bytes are
// carved from, so a control packet's 64-byte buffer is not an allocation of
// its own. Small, because every network strands one slab's tail: a spare
// network once, a one-off network for good. GCS control traffic (heartbeats,
// acks, flow control) stays under smallBufMax; framed video packets exceed it.
const bufSlabSize, smallBufMax = 4096, 512

// recycleLocked files a delivery on its free list. A bare record drops its
// data — an alias of a caller's immutable table, which the pool must never
// write to — while a buffered one keeps its buffer for the next copy of its
// class. Caller holds n.mu; the delivery's timer must have fired already.
func (d *delivery) recycleLocked() {
	n := d.n
	d.from, d.to = 0, 0
	if d.slot == 0 {
		d.data = nil
	}
	d.next = n.freeD[d.slot]
	n.freeD[d.slot] = d
}

// Run fires when the packet arrives: hand the payload to the destination
// handler (outside the lock, since handlers send packets of their own), then
// recycle the event.
func (d *delivery) Run() {
	n := d.n
	n.mu.Lock()
	ep := n.eps[d.to]
	var h transport.Handler
	if ep != nil && !ep.closed {
		h = ep.handler
	}
	if h == nil {
		n.ctrDrop.Inc()
		d.recycleLocked()
		n.mu.Unlock()
		return
	}
	n.ctrDeliv.Inc()
	n.ctrBytes.Add(uint64(len(d.data)))
	from, data := n.addrs[d.from], d.data
	n.mu.Unlock()
	h(from, data)
	n.mu.Lock()
	d.recycleLocked()
	n.mu.Unlock()
}

// transitTimeLocked computes the packet's total time in the network,
// accounting for serialization queueing on the directed link. Horizons are
// unix nanoseconds; the arithmetic is exactly the time.Time math the
// map-based implementation used, so schedules replay unchanged.
func (n *Network) transitTimeLocked(from, to int32, size int) time.Duration {
	prof := n.def
	delay := prof.Delay
	if prof.Jitter > 0 {
		delay += n.fate.jitter(from, to, prof)
	}
	rate := n.egressRate[from]
	if rate <= 0 && prof.Bandwidth <= 0 {
		return delay
	}
	now := n.clk.Now().UnixNano()
	if rate > 0 {
		nf := max(now, n.egressNext[from]) + int64(size)*int64(time.Second)/rate
		n.egressNext[from] = nf
		delay += time.Duration(nf - now)
	}
	if prof.Bandwidth > 0 {
		ser := int64(size) * int64(time.Second) / prof.Bandwidth
		nf := n.rows[from].bump(to, now, ser, len(n.addrs))
		delay += time.Duration(nf - now)
	}
	return delay
}

// sweepPeriod is the floor on how many sends pass between stale-link sweeps.
// Sweeping is amortized rather than per-send because a sweep walks every
// tracked link; the actual period scales with the live-endpoint count so a
// 10k-viewer run doesn't sweep 10k rows every 4096 sends.
const sweepPeriod = 4096

// maybeSweepLocked occasionally prunes link and egress-queue state whose
// serialization queue has already drained (horizon in the past): an idle
// entry behaves identically to an absent one, so dropping it is invisible to
// the simulation, and long capacity sweeps across many node pairs no longer
// accumulate dead link state forever. Reaping is order-independent and
// consumes no randomness, so replays are unaffected. Caller holds n.mu.
func (n *Network) maybeSweepLocked() {
	n.sweepIn--
	if n.sweepIn > 0 {
		return
	}
	n.sweepIn = sweepPeriod
	if p := 8 * n.live; p > n.sweepIn {
		n.sweepIn = p
	}
	now := n.clk.Now().UnixNano()
	for i := range n.rows {
		ep := n.eps[i]
		n.rows[i].reap(now, ep == nil || ep.closed)
	}
	for i, nf := range n.egressNext {
		if nf != 0 && nf <= now {
			n.egressNext[i] = 0
		}
	}
}

type endpoint struct {
	net  *Network
	addr transport.Addr
	id   int32

	// handler and closed are guarded by net.mu: endpoint state changes
	// must be ordered with packet deliveries, which hold that lock.
	handler transport.Handler
	closed  bool
}

var (
	_ transport.Endpoint  = (*endpoint)(nil)
	_ transport.RefSender = (*endpoint)(nil)
)

func (e *endpoint) Addr() transport.Addr { return e.addr }

func (e *endpoint) Send(to transport.Addr, payload []byte) error {
	if len(payload) > transport.MaxDatagram {
		return fmt.Errorf("netsim: send to %s: %w", to, transport.ErrTooLarge)
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	toID := int32(-1)
	if id, ok := n.ids[to]; ok {
		toID = id
	}
	return n.sendLocked(e.id, toID, payload, false)
}

// ResolveAddr implements transport.RefSender: the returned reference is the
// address's dense ID, valid for the network's lifetime across crashes and
// rebinds.
func (e *endpoint) ResolveAddr(to transport.Addr) transport.AddrRef {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return transport.AddrRef(e.net.internLocked(to))
}

// SendStableRef implements transport.RefSender: the payload must never be
// mutated again, and in exchange the network neither copies it on send nor
// on duplication — the receiving handler gets the caller's backing array.
// Drop, duplication and timing behavior are identical to Send with the
// referenced address.
func (e *endpoint) SendStableRef(to transport.AddrRef, payload []byte) error {
	if len(payload) > transport.MaxDatagram {
		return fmt.Errorf("netsim: send to ref#%d: %w", to, transport.ErrTooLarge)
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	return n.sendLocked(e.id, int32(to), payload, true)
}

func (e *endpoint) SetHandler(h transport.Handler) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.handler = h
}

// Close shuts the endpoint down. Its drained link and egress state is reaped
// immediately (drained entries are semantically absent, so this is invisible
// to replays); horizons still booked into the future are kept — they model
// packets that already left the NIC and must still shape later traffic
// exactly as they did before the node went away.
func (e *endpoint) Close() error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !e.closed {
		e.closed = true
		e.handler = nil
		n.live--
		now := n.clk.Now().UnixNano()
		n.rows[e.id].reap(now, true)
		if nf := n.egressNext[e.id]; nf != 0 && nf <= now {
			n.egressNext[e.id] = 0
		}
	}
	return nil
}
