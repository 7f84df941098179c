package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// defaultPeerCacheLimit bounds the peer-resolution cache of a UDPEndpoint.
// A long-lived server sees client addresses churn indefinitely; without a
// bound the cache is a slow memory leak. 4096 entries comfortably covers a
// node's live peer set while keeping the worst case small (~100 B each).
const defaultPeerCacheLimit = 4096

// peerEntry is one cached peer: the Addr it is known by and the socket
// address datagrams to it are written to. It is always indexed by name
// (UDPEndpoint.peers) and, once a datagram has arrived from it, by ap as well
// (UDPEndpoint.sources). used is the CLOCK-eviction reference bit: set on
// every cache hit from either side (atomically, under the read lock), cleared
// by the eviction hand, so recently used peers survive eviction.
type peerEntry struct {
	name Addr
	ap   netip.AddrPort // unmapped: 1.2.3.4, never ::ffff:1.2.3.4
	used atomic.Bool
}

// UDPEndpoint is the real-network Endpoint used by the cmd/ binaries. Its
// Addr is the socket's host:port string; peers are dialed by resolving
// their Addr on every Send (resolution results are cached, with LRU-style
// eviction once the cache exceeds its limit).
type UDPEndpoint struct {
	conn *net.UDPConn
	addr Addr

	mu       sync.RWMutex
	handler  Handler
	peers    map[Addr]*peerEntry           // every entry, by name
	sources  map[netip.AddrPort]*peerEntry // entries heard from, by ap
	order    []*peerEntry                  // insertion ring walked by the eviction hand
	hand     int
	maxPeers int
	closed   bool

	wg sync.WaitGroup

	// Counters resolved once at construction; a nil registry hands out
	// working unregistered counters, so the hot path never branches.
	sentDatagrams *obs.Counter
	sentBytes     *obs.Counter
	sendErrors    *obs.Counter
	sendOversized *obs.Counter
	recvDatagrams *obs.Counter
	recvBytes     *obs.Counter
	recvDropped   *obs.Counter
	readErrors    *obs.Counter
	peerEvictions *obs.Counter
}

var _ Endpoint = (*UDPEndpoint)(nil)

// ListenUDP binds a UDP socket on bind (e.g. "127.0.0.1:7001" or ":0") and
// starts its receive loop. advertise, when non-empty, overrides the address
// reported by Addr — needed when binding ":0" or a wildcard host. An
// optional obs.Registry receives the endpoint's transport.* counters.
func ListenUDP(bind string, advertise Addr, reg ...*obs.Registry) (*UDPEndpoint, error) {
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", bind, err)
	}
	addr := advertise
	if addr == "" {
		addr = Addr(conn.LocalAddr().String())
	}
	var r *obs.Registry
	if len(reg) > 0 {
		r = reg[0]
	}
	ep := &UDPEndpoint{
		conn:     conn,
		addr:     addr,
		peers:    make(map[Addr]*peerEntry),
		sources:  make(map[netip.AddrPort]*peerEntry),
		maxPeers: defaultPeerCacheLimit,

		sentDatagrams: r.Counter("transport.sent_datagrams"),
		sentBytes:     r.Counter("transport.sent_bytes"),
		sendErrors:    r.Counter("transport.send_errors"),
		sendOversized: r.Counter("transport.send_oversized"),
		recvDatagrams: r.Counter("transport.recv_datagrams"),
		recvBytes:     r.Counter("transport.recv_bytes"),
		recvDropped:   r.Counter("transport.recv_dropped"),
		readErrors:    r.Counter("transport.read_errors"),
		peerEvictions: r.Counter("transport.peer_evictions"),
	}
	ep.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

// UDPNetwork is the Network of real UDP sockets used by the cmd/ binaries
// and examples/udplan: each endpoint binds the host:port its Addr names.
// Obs, when set, receives every endpoint's transport.* counters.
type UDPNetwork struct {
	Obs *obs.Registry
}

// NewEndpoint implements Network.
func (n UDPNetwork) NewEndpoint(addr Addr) (Endpoint, error) {
	ep, err := ListenUDP(string(addr), addr, n.Obs)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return ep, nil
}

// Addr implements Endpoint.
func (e *UDPEndpoint) Addr() Addr { return e.addr }

// Send implements Endpoint.
func (e *UDPEndpoint) Send(to Addr, payload []byte) error {
	if len(payload) > MaxDatagram {
		e.sendOversized.Inc()
		return fmt.Errorf("udp send to %s: %w", to, ErrTooLarge)
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	var ap netip.AddrPort
	ent := e.peers[to]
	if ent != nil {
		ent.used.Store(true)
		ap = ent.ap
	}
	e.mu.RUnlock()

	if ent == nil {
		resolved, err := net.ResolveUDPAddr("udp", string(to))
		if err != nil {
			e.sendErrors.Inc()
			return fmt.Errorf("resolve peer %q: %w", to, err)
		}
		ap = unmap(resolved.AddrPort())
		e.mu.Lock()
		e.cachePeerLocked(to, ap)
		e.mu.Unlock()
	}
	if _, err := e.conn.WriteToUDPAddrPort(payload, ap); err != nil {
		e.sendErrors.Inc()
		return fmt.Errorf("udp send to %s: %w", to, err)
	}
	e.sentDatagrams.Inc()
	e.sentBytes.Add(uint64(len(payload)))
	return nil
}

// unmap strips the IPv4-in-IPv6 form a dual-stack socket reports for an IPv4
// peer, so one peer has one AddrPort — and one Addr string, the one
// (*net.UDPAddr).String always printed — whichever socket family saw it.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// cachePeerLocked returns the entry named name, inserting one for ap —
// evicting an old entry if the cache is full — when there is none. Eviction
// is CLOCK (second chance): the hand sweeps the insertion ring, sparing — and
// un-marking — entries hit since its last pass. A victim leaves both indexes
// at once. Caller holds e.mu for writing.
func (e *UDPEndpoint) cachePeerLocked(name Addr, ap netip.AddrPort) *peerEntry {
	if ent := e.peers[name]; ent != nil {
		return ent // raced with another insertion; the first one wins
	}
	ent := &peerEntry{name: name, ap: ap}
	e.peers[name] = ent
	if len(e.order) < e.maxPeers {
		e.order = append(e.order, ent)
		return ent
	}
	// Full: the first pass of the hand may only clear reference bits (no
	// reader can set one while e.mu is held for writing), so the second is
	// guaranteed a victim.
	for {
		if e.hand >= len(e.order) {
			e.hand = 0
		}
		victim := e.order[e.hand]
		if victim.used.CompareAndSwap(true, false) {
			e.hand++
			continue
		}
		delete(e.peers, victim.name)
		if e.sources[victim.ap] == victim {
			delete(e.sources, victim.ap)
		}
		e.order[e.hand] = ent
		e.hand++
		e.peerEvictions.Inc()
		return ent
	}
}

// sourceAddr names a peer heard from for the first time — the host:port
// string of its unmapped socket address — and indexes it by that address, so
// the string is built once per peer and the steady-state receive path
// allocates nothing. The entry is the one Send uses when the peer is already
// known by that name. Only readLoop calls it.
func (e *UDPEndpoint) sourceAddr(ap netip.AddrPort) Addr {
	name := Addr(ap.String())
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.cachePeerLocked(name, ap)
	e.sources[ap] = ent
	return ent.name
}

// SetHandler implements Endpoint.
func (e *UDPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Close implements Endpoint. It stops the receive loop and waits for it.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	err := e.conn.Close()
	e.wg.Wait()
	return err
}

func (e *UDPEndpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, MaxDatagram+1)
	failures := 0
	for {
		n, src, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			e.mu.RLock()
			closed := e.closed
			e.mu.RUnlock()
			if closed {
				return
			}
			e.readErrors.Inc()
			failures++
			if failures > 1 {
				// A persistent error (e.g. a broken socket that is not
				// reported as closed) must not busy-spin the loop; back
				// off exponentially up to 100ms.
				backoff := time.Millisecond << uint(min(failures-2, 7))
				if backoff > 100*time.Millisecond {
					backoff = 100 * time.Millisecond
				}
				time.Sleep(backoff)
			}
			continue // transient error; keep serving
		}
		failures = 0
		e.recvDatagrams.Inc()
		e.recvBytes.Add(uint64(n))
		src = unmap(src)
		e.mu.RLock()
		h := e.handler
		ent := e.sources[src]
		if ent != nil {
			ent.used.Store(true)
		}
		e.mu.RUnlock()
		if h == nil || n > MaxDatagram {
			e.recvDropped.Inc()
			continue
		}
		var from Addr
		if ent != nil {
			from = ent.name
		} else {
			from = e.sourceAddr(src)
		}
		// Handlers must not retain the payload, so one buffer suffices.
		h(from, buf[:n])
	}
}
