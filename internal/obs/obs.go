// Package obs is the cluster observability layer: a concurrency-safe
// registry of named counters and gauges plus a bounded in-memory event
// trace (a "flight recorder"), scoped per node. Every protocol layer —
// transport, group communication, server, client, network simulator —
// increments the same registry shapes, so a real-UDP daemon, a vodbench
// run and a deterministic scenario test all expose the cluster's internal
// activity through one vocabulary.
//
// Counter names are dotted paths, "<subsystem>.<quantity>":
//
//	transport.sent_datagrams   gcs.view_changes    server.takeovers
//	transport.read_errors      gcs.naks_sent       client.stalls
//
// Hot-path cost is one atomic add: callers resolve a *Counter or *Gauge
// once at wire-up time and hold the pointer. The registry lock is taken
// only at registration and snapshot time, never on the update path.
//
// All methods are nil-receiver safe: a nil *Registry hands out nil
// instruments and swallows records, and a nil *Counter or *Gauge ignores
// updates and loads as zero, so components can be instrumented
// unconditionally and an unobserved node allocates no instruments and pays
// no atomic adds.
package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (an occupancy, a queue depth).
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds one node's counters, gauges and event trace.
type Registry struct {
	node string
	now  func() time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	trace    trace
}

// defaultTraceDepth is the capacity the event-trace ring of NewRegistry grows to.
const defaultTraceDepth = 256

// NewRegistry creates a registry for the named node. now supplies event
// timestamps — pass the node's clock.Clock Now method so simulated runs
// trace in deterministic virtual time; nil means time.Now.
func NewRegistry(node string, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{
		node:     node,
		now:      now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. Two calls
// with the same name return the same counter. A nil registry returns a nil
// counter: nobody could ever read it back.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil-registry
// behavior mirrors Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Emit appends one record to the flight recorder; the oldest record is
// overwritten once the ring is full. ref and peer are strings the caller
// already holds, so a call allocates nothing once the ring is at depth. No-op
// on a nil registry.
func (r *Registry) Emit(kind Kind, ref, peer string, a, b int64) {
	if r == nil {
		return
	}
	r.trace.add(Record{At: r.now().UnixNano(), Kind: kind, Ref: ref, Peer: peer, A: a, B: b})
}

// Value reads the named counter without registering it: zero if no component
// ever asked for it, or on a nil registry.
func (r *Registry) Value(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Load()
}

// Snapshot is a point-in-time copy of a registry's state, safe to retain
// and compare. Snapshots of a deterministic (virtual-clock) run are
// themselves deterministic.
type Snapshot struct {
	Node     string
	Counters map[string]uint64
	Gauges   map[string]int64
	Records  []Record // the trace, oldest first
	// Dropped counts trace records lost to ring overwrite.
	Dropped uint64
}

// Snapshot captures every counter, gauge and traced record. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Node:     r.node,
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	s.Records, s.Dropped = r.trace.snapshot()
	return s
}

// trace is the bounded flight-recorder ring. It is allocated at the first
// record with traceStart slots and grows by append to defaultTraceDepth; then
// each record overwrites the oldest.
type trace struct {
	mu      sync.Mutex
	ring    []Record
	next    int // oldest record, and the write position, once the ring is full
	dropped uint64
}

// traceStart is the ring's first allocation: most nodes of a chaos run trace
// fewer than 17 records.
const traceStart = 16

func (t *trace) add(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < defaultTraceDepth {
		if t.ring == nil {
			t.ring = make([]Record, 0, traceStart)
		}
		t.ring = append(t.ring, rec)
		return
	}
	t.dropped++
	t.ring[t.next] = rec
	t.next = (t.next + 1) % defaultTraceDepth
}

// snapshot returns the retained records oldest-first (nil if none).
func (t *trace) snapshot() ([]Record, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Concat(t.ring[t.next:], t.ring[:t.next]), t.dropped
}
