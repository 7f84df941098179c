// Package congress implements a group-address resolution service modeled
// on CONGRESS ("CONnection-oriented Group-address RESolution Service",
// Anker, Breitgand, Dolev, Levy — the paper's references [3, 4]): a
// directory that maps logical group names to the transport addresses of
// their current members.
//
// The paper's clients contact "the abstract VoD service" without knowing
// any server identity (§5.1); in the prototype Transis resolved the group
// name. Here, servers register themselves under "vod.servers" with a TTL
// and refresh periodically; clients resolve the name once at startup and
// then speak to the addresses directly. Registrations expire when a server
// dies, so the directory never hands out long-dead addresses.
//
// The directory itself is soft state only: if it restarts, the next
// registration round repopulates it. Resolution and registration both ride
// the same unreliable datagrams as everything else, with retries.
package congress

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message kinds on the directory channel. Kind 4 (a key resolution) is
// retired: a directory ignores it, and no new message may reuse it, since
// older directories still answer it.
const (
	kindRegister uint8 = iota + 1
	kindResolve
	kindReply
)

// registrationTTL is the lifetime a Registrar asks for; it refreshes at a
// third of it.
const registrationTTL = 3 * time.Second

// Directory is the resolution daemon. Run one (or several, at different
// well-known addresses) per deployment.
type Directory struct {
	clk clock.Clock
	mux *transport.Mux
	ep  transport.Endpoint // the directory channel of the mux

	mu      sync.Mutex
	entries map[string]map[transport.Addr]time.Time // group → addr → expiry
	sweep   clock.Periodic
	closed  bool
}

// NewDirectory starts a directory daemon on its own endpoint at addr. Like
// every node in the system, it multiplexes its endpoint; directory traffic
// rides the directory channel.
func NewDirectory(clk clock.Clock, network transport.Network, addr transport.Addr) (*Directory, error) {
	raw, err := network.NewEndpoint(addr)
	if err != nil {
		return nil, fmt.Errorf("congress: directory at %s: %w", addr, err)
	}
	mux := transport.NewMux(raw)
	d := &Directory{
		clk:     clk,
		mux:     mux,
		ep:      mux.Channel(transport.ChannelDirectory),
		entries: make(map[string]map[transport.Addr]time.Time),
	}
	d.ep.SetHandler(d.onPacket)
	d.sweep.Start(clk, time.Second, time.Second, clock.Func(d.expire))
	return d, nil
}

// Close stops the daemon.
func (d *Directory) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.sweep.Stop()
	_ = d.mux.Close()
}

// Members returns the live addresses registered under group, sorted.
func (d *Directory) Members(group string) []transport.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.membersLocked(group)
}

func (d *Directory) membersLocked(group string) []transport.Addr {
	now := d.clk.Now()
	var out []transport.Addr
	for addr, exp := range d.entries[group] {
		if exp.After(now) {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Directory) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	for group, byAddr := range d.entries {
		for addr, exp := range byAddr {
			if !exp.After(now) {
				delete(byAddr, addr)
			}
		}
		if len(byAddr) == 0 {
			delete(d.entries, group)
		}
	}
}

func (d *Directory) onPacket(from transport.Addr, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	switch kind {
	case kindRegister:
		group := r.String()
		addr := transport.Addr(r.String())
		ttl := time.Duration(r.U64()) * time.Millisecond
		if r.Done() != nil || group == "" || addr == "" || ttl <= 0 {
			return
		}
		d.mu.Lock()
		byAddr := d.entries[group]
		if byAddr == nil {
			byAddr = make(map[transport.Addr]time.Time)
			d.entries[group] = byAddr
		}
		byAddr[addr] = d.clk.Now().Add(ttl)
		d.mu.Unlock()
	case kindResolve:
		group := r.String()
		nonce := r.U64()
		if r.Done() != nil {
			return
		}
		d.mu.Lock()
		members := d.membersLocked(group)
		d.mu.Unlock()
		d.reply(from, group, nonce, members)
	}
}

// reply sends a kindReply carrying addrs.
func (d *Directory) reply(to transport.Addr, group string, nonce uint64, addrs []transport.Addr) {
	_ = d.ep.Send(to, appendReply(nil, group, nonce, addrs))
}

// appendReply frames a kindReply: kind, group, nonce, address count, then
// each address.
func appendReply(b []byte, group string, nonce uint64, addrs []transport.Addr) []byte {
	b = slices.Grow(b, replySize(group, addrs))
	b = wire.AppendU8(b, kindReply)
	b = wire.AppendString(b, group)
	b = wire.AppendU64(b, nonce)
	b = wire.AppendU16(b, uint16(len(addrs)))
	for _, m := range addrs {
		b = wire.AppendString(b, string(m))
	}
	return b
}

// replySize is the encoded length of appendReply's frame.
func replySize(group string, addrs []transport.Addr) int {
	n := 1 + 2 + len(group) + 8 + 2
	for _, m := range addrs {
		n += 2 + len(m)
	}
	return n
}

// Registrar keeps one (group, addr) registration alive at a directory,
// refreshing at TTL/3 — the keepalive side of CONGRESS.
type Registrar struct {
	task clock.Periodic
}

// NewRegistrar starts refreshing immediately. ep is the registrant's own
// endpoint (typically a dedicated mux channel); addr is the address being
// advertised (usually ep's own).
func NewRegistrar(clk clock.Clock, ep transport.Endpoint, directory transport.Addr, group string, addr transport.Addr) *Registrar {
	// Every refresh sends the same frame, and Send does not retain it.
	pkt := appendRegister(nil, group, addr, registrationTTL)
	send := func() { _ = ep.Send(directory, pkt) }
	send()
	r := &Registrar{}
	r.task.Start(clk, registrationTTL/3, registrationTTL/3, clock.Func(send))
	return r
}

// appendRegister frames a kindRegister: kind, group, addr, TTL in ms.
func appendRegister(b []byte, group string, addr transport.Addr, ttl time.Duration) []byte {
	b = slices.Grow(b, registerSize(group, addr))
	b = wire.AppendU8(b, kindRegister)
	b = wire.AppendString(b, group)
	b = wire.AppendString(b, string(addr))
	return wire.AppendU64(b, uint64(ttl.Milliseconds()))
}

// registerSize is the encoded length of appendRegister's frame.
func registerSize(group string, addr transport.Addr) int {
	return 1 + 2 + len(group) + 2 + len(addr) + 8
}

// Stop ceases refreshing; the registration expires at the directory.
func (r *Registrar) Stop() { r.task.Stop() }

// Resolution retry backoff: the first retry waits resolveRetryBase, each
// further retry doubles the wait up to resolveRetryCap, and every wait adds
// up to 25% deterministic jitter. Without the jitter, every client that
// lost its directory to the same partition would retry in lockstep and the
// heal would be greeted by a synchronized lookup storm.
const (
	resolveRetryBase = 300 * time.Millisecond
	resolveRetryCap  = 2 * time.Second
)

// Resolver performs resolutions against a directory over an endpoint it
// shares with its owner. Replies are matched to requests by nonce.
type Resolver struct {
	clk       clock.Clock
	ep        transport.Endpoint
	directory transport.Addr

	mu      sync.Mutex
	rng     *rand.Rand // jitter; seeded from the endpoint address
	nonce   uint64
	pending map[uint64]*resolution

	// streak counts resolutions that exhausted their retries since the last
	// directory reply, across Resolve calls: when the directory has been
	// unreachable for a while, a fresh resolution starts deeper in the
	// backoff schedule instead of restarting the probe storm from the base
	// delay. Any reply — even an empty member list — resets it, so the
	// first success after a directory heal drops later resolutions straight
	// back to the base delay.
	streak int
}

type resolution struct {
	group    string
	callback func([]transport.Addr)
	retries  int
	attempt  int // retries already taken, drives the backoff
	timer    clock.Timer
}

// NewResolver wires a resolver to ep: it takes over ep's inbound handler.
// Retry jitter is seeded from ep's address, so runs on a virtual clock are
// deterministic while distinct nodes still desynchronize.
func NewResolver(clk clock.Clock, ep transport.Endpoint, directory transport.Addr) *Resolver {
	r := &Resolver{
		clk:       clk,
		ep:        ep,
		directory: directory,
		rng:       rand.New(rand.NewSource(seedFrom(string(ep.Addr()) + "|" + string(directory)))),
		pending:   make(map[uint64]*resolution),
	}
	ep.SetHandler(r.onPacket)
	return r
}

// seedFrom derives a deterministic RNG seed from an identity string.
func seedFrom(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64())
}

// Resolve looks group up, invoking callback exactly once: with the member
// list on success, or with nil after maxRetries request timeouts.
func (r *Resolver) Resolve(group string, maxRetries int, callback func([]transport.Addr)) {
	res := &resolution{group: group, callback: callback, retries: maxRetries}
	r.mu.Lock()
	r.nonce++
	nonce := r.nonce
	r.pending[nonce] = res
	r.mu.Unlock()
	r.send(nonce, res)
}

func (r *Resolver) send(nonce uint64, res *resolution) {
	_ = r.ep.Send(r.directory, appendResolve(nil, res.group, nonce))

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending[nonce] != res {
		return // answered meanwhile
	}
	res.timer = r.clk.AfterFunc(r.retryDelayLocked(res.attempt+r.streak), func() {
		r.mu.Lock()
		if r.pending[nonce] != res {
			r.mu.Unlock()
			return
		}
		if res.retries <= 0 {
			delete(r.pending, nonce)
			r.streak++
			cb := res.callback
			r.mu.Unlock()
			cb(nil)
			return
		}
		res.retries--
		res.attempt++
		r.mu.Unlock()
		r.send(nonce, res)
	})
}

// appendResolve frames a kindResolve: kind, group, nonce.
func appendResolve(b []byte, group string, nonce uint64) []byte {
	b = slices.Grow(b, resolveSize(group))
	b = wire.AppendU8(b, kindResolve)
	b = wire.AppendString(b, group)
	return wire.AppendU64(b, nonce)
}

// resolveSize is the encoded length of appendResolve's frame.
func resolveSize(group string) int { return 1 + 2 + len(group) + 8 }

// retryDelayLocked computes the capped exponential backoff with jitter for
// the given retry attempt. Caller holds r.mu.
func (r *Resolver) retryDelayLocked(attempt int) time.Duration {
	d := clock.Backoff(resolveRetryBase, resolveRetryCap, attempt)
	return d + time.Duration(r.rng.Int63n(int64(d)/4+1))
}

func (r *Resolver) onPacket(_ transport.Addr, payload []byte) {
	rd := wire.NewReader(payload)
	if rd.U8() != kindReply {
		return
	}
	group := rd.String()
	nonce := rd.U64()
	n := int(rd.U16())
	// n is off the wire: an address takes at least its 2-byte length prefix,
	// so a reply claiming more than the datagram holds is dropped before
	// anything is allocated for it.
	if rd.Err() != nil || 2*n > rd.Remaining() {
		return
	}
	addrs := make([]transport.Addr, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, transport.Addr(rd.String()))
	}
	if rd.Done() != nil {
		return
	}

	r.mu.Lock()
	res, ok := r.pending[nonce]
	if !ok || res.group != group {
		r.mu.Unlock()
		return
	}
	delete(r.pending, nonce)
	r.streak = 0 // the directory is answering again
	if res.timer != nil {
		res.timer.Stop()
	}
	cb := res.callback
	r.mu.Unlock()
	cb(addrs)
}
