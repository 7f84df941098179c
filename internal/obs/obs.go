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
// instruments and swallows events, and a nil *Counter or *Gauge ignores
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

// Event is one entry of the flight-recorder trace.
type Event struct {
	At   time.Time `json:"at"`
	Kind string    `json:"kind"` // dotted path, e.g. "gcs.view"
	Note string    `json:"note"` // free-form detail
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

// Event appends one entry to the flight recorder; the oldest entry is
// overwritten once the ring is full. No-op on a nil registry — but the
// caller's note is built before the call, so a site that formats one
// (fmt.Sprintf) asks whether the registry is nil first.
func (r *Registry) Event(kind, note string) {
	if r == nil {
		return
	}
	r.trace.add(Event{At: r.now(), Kind: kind, Note: note})
}

// Snapshot is a point-in-time copy of a registry's state, safe to retain
// and compare. Snapshots of a deterministic (virtual-clock) run are
// themselves deterministic.
type Snapshot struct {
	Node     string            `json:"node"`
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
	Events   []Event           `json:"events"`
	// Dropped counts trace events lost to ring overwrite.
	Dropped uint64 `json:"events_dropped"`
}

// Snapshot captures every counter, gauge and traced event. A nil
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
	s.Events, s.Dropped = r.trace.snapshot()
	return s
}

// trace is the bounded flight-recorder ring. It is allocated at the first
// event and grows by append to defaultTraceDepth; then each event overwrites
// the oldest.
type trace struct {
	mu      sync.Mutex
	ring    []Event
	next    int // oldest entry, and the write position, once the ring is full
	dropped uint64
}

func (t *trace) add(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < defaultTraceDepth {
		if t.ring == nil {
			t.ring = make([]Event, 0, defaultTraceDepth/4)
		}
		t.ring = append(t.ring, e)
		return
	}
	t.dropped++
	t.ring[t.next] = e
	t.next = (t.next + 1) % defaultTraceDepth
}

// snapshot returns the retained events oldest-first (nil if none).
func (t *trace) snapshot() ([]Event, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Concat(t.ring[t.next:], t.ring[:t.next]), t.dropped
}
