package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Events fire in deadline
// order; ties break in scheduling order, so a run is exactly reproducible.
//
// Virtual is safe for concurrent use, but events themselves execute
// sequentially on whichever goroutine drives the clock (Step, Advance or
// Drain), never concurrently with each other. Event callbacks may schedule
// further events and stop timers.
//
// The queue is one 4-ary min-heap of events keyed on (deadline nanos, seq),
// seq being the arming order — the order the clock promises, so the heap
// needs no other bookkeeping. A callback that schedules onto the instant
// being run gets a higher seq than everything already due then and fires
// after it, in the same pass. Event records come from slab-allocated chunks
// recycled through a free list, so steady-state timer traffic — frame
// pacing, heartbeats, packet deliveries — allocates nothing: Schedule
// recycles its event automatically when it fires, and AfterFunc callers that
// are done with a Timer can hand its record back with Release.
type Virtual struct {
	mu       sync.Mutex
	nowNanos int64 // the current instant in UnixNano; heap keys are integer nanos

	// nowAtomic mirrors nowNanos so Now — the single hottest read in a
	// simulation — needs no lock: it reconstructs the time.Time from the
	// base instant, which is exact integer arithmetic.
	nowAtomic atomic.Int64
	base      time.Time
	baseNanos int64

	heap []heapEntry // pending events, a 4-ary min-heap on (nanos, seq)

	free  *event     // free list of event records
	slab  *eventSlab // newest allocation chunk; older ones chain through prev
	slabN int        // records carved from slab

	seq uint64
}

var (
	_ Clock     = (*Virtual)(nil)
	_ Scheduler = (*Virtual)(nil)
	_ rearmer   = (*Virtual)(nil)
)

// eventSlab is one allocation of event records, chained newest first for Reset.
type eventSlab struct {
	ev   [eventSlabSize]event
	prev *eventSlab
}

// eventSlabSize is how many event records one allocation provides; with the
// link, a slab fills a 10 KB size class. A saturated capacity trial holds
// ≈ 12,000 events at its peak, nearly all packets in flight: under 50 slabs.
const eventSlabSize = 255

// NewVirtual returns a Virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	c := &Virtual{}
	c.Reset(start)
	return c
}

// Reset returns the clock to the state NewVirtual(start) builds but keeps its
// event records and heap capacity. A pending Schedule record goes back on the
// free list. Any other record drops its callback and is retired, never to be
// reissued, so an old handle stays harmless; a slab of retired records only
// is let go. Reset reports how many AfterFunc timers were still armed.
func (c *Virtual) Reset(start time.Time) (armed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.free = nil
	link := &c.slab
	for s, n := c.slab, c.slabN; s != nil; s, n = s.prev, eventSlabSize {
		reused := s == c.slab // the newest slab stays: it still has records to carve
		for i := range s.ev[:n] {
			ev := &s.ev[i]
			switch {
			case ev.state == stateFree, ev.state == statePending && ev.autoFree:
				c.recycleLocked(ev)
				reused = true
			case ev.state != stateRetired:
				if ev.state == statePending {
					armed++
				}
				ev.fn, ev.state = nil, stateRetired
			}
		}
		if reused {
			link = &s.prev
		} else {
			*link = s.prev
		}
	}
	clear(c.heap)
	c.heap = c.heap[:0]
	c.seq = 0
	c.nowNanos, c.base, c.baseNanos = start.UnixNano(), start, start.UnixNano()
	c.nowAtomic.Store(c.nowNanos)
	return armed
}

// Now implements Clock. It is lock-free: the instant is reconstructed from
// the clock's base time and the current instant's integer nanos.
func (c *Virtual) Now() time.Time {
	return c.base.Add(time.Duration(c.nowAtomic.Load() - c.baseNanos))
}

// takeEventLocked returns a blank event record: free list first, then the
// current slab, growing a fresh slab when both run dry. Caller holds mu.
func (c *Virtual) takeEventLocked() *event {
	if ev := c.free; ev != nil {
		c.free = ev.nextFree
		ev.nextFree = nil
		return ev
	}
	if c.slab == nil || c.slabN == eventSlabSize {
		c.slab = &eventSlab{prev: c.slab}
		c.slabN = 0
	}
	ev := &c.slab.ev[c.slabN]
	c.slabN++
	ev.c = c
	return ev
}

// newEventLocked arms a recycled (or freshly slab-carved) event record.
// Caller must hold mu.
func (c *Virtual) newEventLocked(d time.Duration, f func(), autoFree bool) *event {
	if d < 0 {
		d = 0
	}
	ev := c.takeEventLocked()
	ev.fn = f
	ev.autoFree = autoFree
	c.armLocked(ev, d)
	return ev
}

// armLocked stamps a sequence number on ev and pushes it for now+d. Caller
// holds mu; ev must not be in the heap.
func (c *Virtual) armLocked(ev *event, d time.Duration) {
	ev.state = statePending
	if len(c.heap) == cap(c.heap) { // double: append's ≈ 1.25× steps leave ≈ 5× the final array behind
		c.heap = append(make([]heapEntry, 0, max(64, 2*cap(c.heap))), c.heap...)
	}
	c.heap = append(c.heap, heapEntry{})
	c.upLocked(len(c.heap)-1, heapEntry{nanos: c.nowNanos + int64(d), seq: c.seq, ev: ev})
	c.seq++
}

// Rearm implements rearmer: it re-arms a timer record from this clock for d
// from now, reusing the record (and its callback) instead of releasing and
// re-issuing it. For a fired timer this is exactly equivalent to Release
// followed by AfterFunc with the same fn — Release would push the record onto
// the free-list head and AfterFunc would pop that same record straight back,
// with one sequence number consumed either way — so replay order is
// untouched; it just skips the second lock round trip and the free-list
// churn. Returns false if the record is not reusable (foreign clock, stopped,
// or already released), in which case the caller falls back to the two-step
// path.
func (c *Virtual) Rearm(t Timer, d time.Duration) bool {
	ev, ok := t.(*event)
	if !ok || ev.c != c {
		return false
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.state {
	case statePending:
		c.removeLocked(ev.index)
	case stateFired:
		// Not queued; the record and its fn are intact and reusable.
	default:
		// stateStopped and stateRetired cleared fn; stateFree records may
		// already back an unrelated timer. None is safely re-armable.
		return false
	}
	c.armLocked(ev, d)
	return true
}

// AfterFunc implements Clock. The returned Timer's record is not recycled
// until the caller passes it to Release (or the Schedule fast path is used
// instead), so holding a handle across an arbitrary span stays safe.
func (c *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newEventLocked(d, f, false)
}

// Schedule implements Scheduler: AfterFunc without the Timer handle. The
// internal event record returns to the free list as soon as the callback
// fires, so steady-state fire-and-forget scheduling does not allocate.
func (c *Virtual) Schedule(d time.Duration, f func()) {
	c.mu.Lock()
	c.newEventLocked(d, f, true)
	c.mu.Unlock()
}

// Len returns the number of pending events.
func (c *Virtual) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// Step executes the earliest pending event, advancing the clock to its
// deadline. It reports whether an event was executed.
func (c *Virtual) Step() bool {
	c.mu.Lock()
	fn := c.takeLocked(0, false)
	c.mu.Unlock()
	if fn == nil {
		return false
	}
	fn()
	return true
}

// takeLocked pops the earliest event due at or before limitNanos (no limit
// when limited is false), advances the clock to its deadline, and returns
// its callback — nil if no event qualifies. Auto-free events are recycled
// here, before the callback runs: nothing else references them, and the
// callback itself is already copied out. Caller holds mu.
func (c *Virtual) takeLocked(limitNanos int64, limited bool) func() {
	if len(c.heap) == 0 {
		return nil
	}
	top := c.heap[0]
	if limited && top.nanos > limitNanos {
		return nil
	}
	c.removeLocked(0)
	if top.nanos > c.nowNanos {
		c.nowNanos = top.nanos
		c.nowAtomic.Store(top.nanos)
	}
	ev := top.ev
	ev.state = stateFired
	fn := ev.fn
	if ev.autoFree {
		c.recycleLocked(ev)
	}
	return fn
}

// Advance runs every event with a deadline at or before now+d, in order,
// then sets the clock to exactly now+d. It returns the number of events
// executed. Events scheduled by callbacks are included if they fall within
// the window.
func (c *Virtual) Advance(d time.Duration) int {
	c.mu.Lock()
	limit := c.nowNanos + int64(d)
	c.mu.Unlock()
	return c.advanceTo(limit)
}

// AdvanceTo runs every event with a deadline at or before t, then sets the
// clock to t (if t is later than the current time). It returns the number
// of events executed.
func (c *Virtual) AdvanceTo(t time.Time) int {
	return c.advanceTo(t.UnixNano())
}

func (c *Virtual) advanceTo(limit int64) int {
	n := 0
	for {
		c.mu.Lock()
		fn := c.takeLocked(limit, true)
		if fn == nil {
			if limit > c.nowNanos {
				c.nowNanos = limit
				c.nowAtomic.Store(limit)
			}
			c.mu.Unlock()
			return n
		}
		c.mu.Unlock()
		fn()
		n++
	}
}

// Drain runs events until none remain or limit events have executed.
// It returns the number of events executed. A limit of 0 means no limit;
// callers use a limit to guard against self-perpetuating timer chains
// (heartbeats reschedule themselves forever).
func (c *Virtual) Drain(limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		if !c.Step() {
			break
		}
		n++
	}
	return n
}

// recycleLocked clears an event record and links it onto the free list.
// Caller holds mu; the event must no longer be in the heap.
func (c *Virtual) recycleLocked(ev *event) {
	ev.fn = nil
	ev.state = stateFree
	ev.nextFree = c.free
	c.free = ev
}

// Event lifecycle states.
const (
	statePending = uint8(iota) // armed, in the heap
	stateFired                 // callback ran (or is about to run)
	stateStopped               // cancelled before firing
	stateFree                  // recycled onto the free list
	stateRetired               // outlived a Reset: never reissued, and Stop, Release and Rearm leave it be
)

// event is a pending Virtual callback; it doubles as the Timer handle.
type event struct {
	fn       func()
	c        *Virtual
	nextFree *event // free-list link while recycled
	index    int    // position in c.heap while pending
	state    uint8
	autoFree bool // Schedule()-created: recycle on fire, no handle exists
}

var _ Timer = (*event)(nil)

// Stop implements Timer. A stopped event is removed from the queue
// immediately. Its record is not reissued while the clock lives unless the
// caller also hands it back with Release.
func (ev *event) Stop() bool {
	ev.c.mu.Lock()
	defer ev.c.mu.Unlock()
	if ev.state != statePending {
		return false
	}
	ev.c.removeLocked(ev.index)
	ev.state = stateStopped
	ev.fn = nil
	return true
}

// Release cancels t if it is still pending and returns its internal record
// to the owning Virtual clock's free list. It is the explicit opt-in that
// makes re-arming timer patterns (pacing loops, periodic tasks)
// allocation-free: after Release returns, the handle is dead and must be
// discarded — calling Stop or Release on it again is a caller bug, since the
// record may already be carrying an unrelated timer. Building with the
// clockdebug tag turns a releases-after-release into a panic instead of a
// silent (and potentially queue-corrupting) no-op. For Timers from other
// clocks, Release just calls Stop.
func Release(t Timer) {
	ev, ok := t.(*event)
	if !ok {
		if t != nil {
			t.Stop()
		}
		return
	}
	c := ev.c
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.state {
	case statePending:
		c.removeLocked(ev.index)
	case stateRetired:
		return
	case stateFree:
		// Double release: the record may already back another timer, so
		// touching it would corrupt the queue. Leave it alone (and, under
		// the clockdebug build tag, panic so the caller bug surfaces).
		if releaseDebug {
			panic("clock: Release called on an already-released timer record")
		}
		return
	}
	c.recycleLocked(ev)
}

// Heap primitives: a 4-ary min-heap kept inline (no container/heap) so push
// and pop stay monomorphic and allocation-free. Each entry carries its key
// beside the event pointer so sift comparisons walk the contiguous heap slice
// instead of dereferencing a cold event record per compare; four-way
// branching then halves the sift depth, trading compares that share a cache
// line for pointer hops that don't. Sifts move a hole rather than swapping,
// writing each displaced entry (and its event's index) once.

// heapEntry is one heap slot: a pending event and its key.
type heapEntry struct {
	nanos int64  // deadline in UnixNano
	seq   uint64 // arming order, the tie-break
	ev    *event
}

func (e *heapEntry) before(o *heapEntry) bool {
	return e.nanos < o.nanos || e.nanos == o.nanos && e.seq < o.seq
}

func (c *Virtual) setLocked(i int, e heapEntry) {
	c.heap[i] = e
	e.ev.index = i
}

// removeLocked takes the entry at slot i out of the heap, filling the hole
// with the last entry. Caller holds mu.
func (c *Virtual) removeLocked(i int) {
	last := len(c.heap) - 1
	e := c.heap[last]
	c.heap[last] = heapEntry{}
	c.heap = c.heap[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(&c.heap[(i-1)/4]) {
		c.upLocked(i, e)
	} else {
		c.downLocked(i, e)
	}
}

// upLocked places e at or above the hole at slot i.
func (c *Virtual) upLocked(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&c.heap[parent]) {
			break
		}
		c.setLocked(i, c.heap[parent])
		i = parent
	}
	c.setLocked(i, e)
}

// downLocked places e at or below the hole at slot i.
func (c *Virtual) downLocked(i int, e heapEntry) {
	n := len(c.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for k := first + 1; k < first+4 && k < n; k++ {
			if c.heap[k].before(&c.heap[least]) {
				least = k
			}
		}
		if !c.heap[least].before(&e) {
			break
		}
		c.setLocked(i, c.heap[least])
		i = least
	}
	c.setLocked(i, e)
}
