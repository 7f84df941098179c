// Package lease implements the client side of two-tier membership.
//
// In the paper's design every viewer is a full group member, so
// heartbeats and ack vectors grow quadratically with the audience. The
// two-tier split (DESIGN §12) keeps virtual synchrony for the small
// server core only; clients attach to their serving server with a
// lightweight lease instead:
//
//   - the client's Keeper sends a Renew every TTL/3 on the injected
//     clock and expects an Ack; TTL of silence means the server (or the
//     path to it) is gone and the client re-anycasts its Open,
//   - the server's Table tracks one entry per leased session and
//     expires entries that stop renewing, reclaiming the session.
//
// Takeover needs no view change: the lease simply dies on both ends
// and the client's re-anycast (with the takeover flag) lands on the
// next ring replica, which resumes from the synced knowledge table.
//
// Renew/Ack ride the gcs direct channel next to OpenReply. Their kind
// bytes live above the wire.Kind range (1..6) so one dispatch switch
// can tell them apart without a version bump.
package lease

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Kind bytes for the direct channel, disjoint from wire.Kind 1..6.
const (
	KindRenew byte = 0x11 // client -> server: keep my session alive
	KindAck   byte = 0x12 // server -> client: lease confirmed for TTL
)

// DefaultTTL is the lifetime servers grant to client leases. A leased client
// renews over direct datagrams every TTL/3, so two renewals may be lost
// before the lease lapses and the session is torn down as departed.
const DefaultTTL = 2 * time.Second

var errKind = errors.New("lease: wrong kind byte")

// Renew asks the serving server to extend the client's lease.
type Renew struct {
	ClientID string
	Seq      uint64 // monotonic per client; echoed in the Ack
}

// Ack confirms a Renew and restates the lease TTL.
type Ack struct {
	ClientID string
	Seq      uint64
	TTLMs    uint32
}

// AppendRenew appends the encoded message to b, reserving its whole length
// first so a buffer without room for it grows once.
func AppendRenew(b []byte, m *Renew) []byte {
	b = slices.Grow(b, m.size())
	b = wire.AppendU8(b, KindRenew)
	b = wire.AppendString(b, m.ClientID)
	b = wire.AppendU64(b, m.Seq)
	return b
}

// size is the encoded length of m: kind, the ID's u16 length and bytes, Seq.
func (m *Renew) size() int { return 1 + 2 + len(m.ClientID) + 8 }

// DecodeRenewInto decodes into m, reusing m.ClientID's storage when
// the value is unchanged (same keepString contract as internal/wire).
func DecodeRenewInto(m *Renew, b []byte) error {
	r := wire.NewReader(b)
	if r.U8() != KindRenew {
		if err := r.Err(); err != nil {
			return err
		}
		return errKind
	}
	if id := r.StringBytes(); m.ClientID != string(id) {
		m.ClientID = string(id)
	}
	m.Seq = r.U64()
	return r.Done()
}

// AppendAck appends the encoded message to b, reserved like AppendRenew.
func AppendAck(b []byte, m *Ack) []byte {
	b = slices.Grow(b, m.size())
	b = wire.AppendU8(b, KindAck)
	b = wire.AppendString(b, m.ClientID)
	b = wire.AppendU64(b, m.Seq)
	b = wire.AppendU32(b, m.TTLMs)
	return b
}

// size is the encoded length of m: a Renew's fields, then TTLMs.
func (m *Ack) size() int { return 1 + 2 + len(m.ClientID) + 8 + 4 }

// DecodeAckInto decodes into m with the keepString contract.
func DecodeAckInto(m *Ack, b []byte) error {
	r := wire.NewReader(b)
	if r.U8() != KindAck {
		if err := r.Err(); err != nil {
			return err
		}
		return errKind
	}
	if id := r.StringBytes(); m.ClientID != string(id) {
		m.ClientID = string(id)
	}
	m.Seq = r.U64()
	m.TTLMs = r.U32()
	return r.Done()
}

// Table is the server-side lease table: one expiry per leased session,
// swept on the injected clock. A plain map of expiries: Touch overwrites a
// value in place and Drop deletes it, so neither steady renewals nor Drop
// and Touch churn allocate once the map has grown to the audience.
type Table struct {
	clk      clock.Clock
	ttl      time.Duration
	onExpire func(id string) // called outside the table lock, in sorted ID order

	mu      sync.Mutex
	entries map[string]time.Time // ID → expiry
	sweep   clock.Periodic
	expired []string // sweep scratch
}

// NewTable starts the sweeper (one Periodic at TTL/4 granularity — the
// table adds a single timer per server, not one per client).
func NewTable(clk clock.Clock, ttl time.Duration, onExpire func(id string)) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	t := &Table{
		clk:      clk,
		ttl:      ttl,
		onExpire: onExpire,
		entries:  make(map[string]time.Time),
	}
	t.sweep.Start(clk, ttl/4, ttl/4, t.sweepTick)
	return t
}

// TTL reports the configured lease lifetime.
func (t *Table) TTL() time.Duration { return t.ttl }

// Touch creates or refreshes the lease for id.
func (t *Table) Touch(id string) {
	now := t.clk.Now()
	t.mu.Lock()
	t.entries[id] = now.Add(t.ttl)
	t.mu.Unlock()
}

// Drop removes id's lease without firing onExpire (session closed
// through the normal teardown path).
func (t *Table) Drop(id string) {
	t.mu.Lock()
	delete(t.entries, id)
	t.mu.Unlock()
}

// Len reports the live lease count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Close stops the sweeper. Entries are left in place (the owning
// server tears its sessions down itself).
func (t *Table) Close() { t.sweep.Stop() }

func (t *Table) sweepTick() {
	now := t.clk.Now()
	t.mu.Lock()
	t.expired = t.expired[:0]
	for id, expiry := range t.entries {
		if now.After(expiry) {
			t.expired = append(t.expired, id)
		}
	}
	// Sorted order: map iteration must never leak into callback order
	// (DESIGN §9).
	sort.Strings(t.expired)
	for _, id := range t.expired {
		delete(t.entries, id)
	}
	t.mu.Unlock()
	if t.onExpire != nil {
		for _, id := range t.expired {
			t.onExpire(id)
		}
	}
}

// Keeper is the client-side renewer: one Periodic at TTL/3 that sends
// a sequenced Renew and watches for Acks. A full TTL without any Ack
// fires onLost (once per outage) so the client can re-anycast.
type Keeper struct {
	clk    clock.Clock
	send   func(seq uint64)
	onLost func()

	mu      sync.Mutex
	task    clock.Periodic
	stopped bool
	ttl     time.Duration
	seq     uint64
	acked   uint64
	lastAck time.Time
	lost    bool
}

// NewKeeper starts renewing immediately. send transmits one Renew
// (called without the Keeper lock held); onLost reports a dead lease.
func NewKeeper(clk clock.Clock, ttl time.Duration, send func(seq uint64), onLost func()) *Keeper {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	k := &Keeper{clk: clk, send: send, onLost: onLost, ttl: ttl, lastAck: clk.Now()}
	k.task.Start(clk, ttl/3, ttl/3, k.tick)
	return k
}

func (k *Keeper) tick() {
	now := k.clk.Now()
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		return
	}
	expired := !k.lost && now.Sub(k.lastAck) > k.ttl
	if expired {
		k.lost = true
	}
	k.seq++
	seq := k.seq
	k.mu.Unlock()
	// Keep renewing even while lost: if the server (or the path) comes
	// back before the client re-opens, the next Ack revives the lease.
	k.send(seq)
	if expired && k.onLost != nil {
		k.onLost()
	}
}

// Ack records a confirmation. Stale sequence numbers (reordered
// deliveries) still count as liveness proof.
func (k *Keeper) Ack(seq uint64) {
	now := k.clk.Now()
	k.mu.Lock()
	if seq > k.acked {
		k.acked = seq
	}
	k.lastAck = now
	k.lost = false
	k.mu.Unlock()
}

// Touch resets the silence window without an Ack — called when the
// client re-attaches (a fresh OpenReply proves the server is alive).
func (k *Keeper) Touch() {
	now := k.clk.Now()
	k.mu.Lock()
	k.lastAck = now
	k.lost = false
	k.mu.Unlock()
}

// Stop halts renewals.
func (k *Keeper) Stop() {
	k.mu.Lock()
	k.stopped = true
	k.mu.Unlock()
	k.task.Stop()
}
