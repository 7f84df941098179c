// Package obs is the cluster observability layer: a concurrency-safe
// registry of named counters plus a bounded in-memory event trace (a
// "flight recorder"), scoped per node. Every protocol layer — transport,
// group communication, server, client, network simulator — reports into
// the same registry shapes, so a real-UDP daemon, a vodbench run and a
// deterministic scenario test all expose the cluster's internal activity
// through one vocabulary.
//
// Counter names are dotted paths, "<subsystem>.<quantity>":
//
//	transport.sent_datagrams   gcs.view_changes    server.takeovers
//	transport.read_errors      gcs.naks_sent       client.stalls
//
// A count has one store. A layer that keeps no count of its own resolves a
// *Counter once at wire-up time and holds the pointer, so an update is one
// atomic add and the registry lock is taken only at registration and
// snapshot time. A layer that already keeps its counts under its own lock
// (the server and the client) registers a Source instead: a read function
// the registry calls at snapshot time, which adds the owner's counts and
// levels into the snapshot. Its hot path pays nothing.
//
// All methods are nil-receiver safe: a nil *Registry hands out nil
// counters, drops sources and swallows records, and a nil *Counter ignores
// updates and loads as zero, so components can be instrumented
// unconditionally and an unobserved node allocates nothing here.
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

// Registry holds one node's counters, sources and event trace.
type Registry struct {
	node string
	now  func() time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	// sources only grows: a reader copies the slice header under mu and
	// calls the functions after releasing it.
	sources []func(*Snapshot)
	trace   trace
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

// Source registers read, which every Snapshot and Value calls, without the
// registry's lock held, to add its owner's counts to Snapshot.Counters and
// its levels to Snapshot.Gauges. Values that several sources (or a source
// and a counter) report under one name add up, so the incarnations of a
// restarted node sum as they would through one shared counter. read takes
// whatever lock guards its owner's state, and must not call back into the
// registry. No-op on a nil registry.
func (r *Registry) Source(read func(*Snapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, read)
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

// Value reads the named count without registering it: zero if no counter or
// source ever reported it, or on a nil registry.
func (r *Registry) Value(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counts().Counters[name]
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

// Snapshot captures every counter, every source's counts and levels, and the
// traced records. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	}
	s := r.counts()
	s.Records, s.Dropped = r.trace.snapshot()
	return s
}

// counts reads the counters under r.mu, then calls the sources without it,
// so the registry's lock is never held while a source takes its owner's.
func (r *Registry) counts() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Node:     r.node,
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	sources := r.sources
	r.mu.Unlock()
	for _, read := range sources {
		read(&s)
	}
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
