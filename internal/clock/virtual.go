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
// The queue is a coalescing timer wheel: events sharing a deadline are
// grouped into one bucket (scheduling order within the bucket is creation
// order, which preserves the (when, seq) contract), and the buckets form a
// binary min-heap keyed on the deadline's integer nanoseconds. Simulated
// workloads schedule heavily onto shared instants — frame-pacing grids,
// zero-delay trampolines, heartbeats phase-locked at start — so the heap a
// frame-pacing timer percolates through is one or two orders of magnitude
// smaller than an event-per-entry heap, and the comparisons are single
// integer compares instead of time.Time method calls. Event records come
// from slab-allocated chunks recycled through a free list, so steady-state
// timer traffic — frame pacing, heartbeats, packet deliveries — allocates
// nothing: Schedule recycles its event automatically when it fires, and
// AfterFunc callers that are done with a Timer can hand its record back with
// Release.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	nowNanos int64 // now.UnixNano(), cached: bucket keys are integer nanos

	// nowAtomic mirrors nowNanos so Now — the single hottest read in a
	// simulation — needs no lock: callers reconstruct the time.Time from
	// the base instant, which is exact integer arithmetic and therefore
	// equal to the locked chain of Adds it replaces.
	nowAtomic atomic.Int64
	base      time.Time
	baseNanos int64

	buckets bucketTable // pending buckets by deadline nanos
	bq      []bqEntry   // min-heap on deadline nanos (keys are unique)

	// Recycled bucket records, segregated by backing so a record whose evs
	// slice grew past the inline array is preferentially reissued to the
	// deadlines that need it: same-instant deferrals (d == 0) fan dozens of
	// events into one bucket, while serialized egress packets get unique
	// deadlines and never outgrow the inline array. One mixed LIFO list
	// would constantly hand small records to big instants and regrow them.
	freeB    []*bucket // inline-backed records
	freeBBig []*bucket // records with a grown evs slice (capacity stays warm)

	free  *event  // free list of event records
	slab  []event // current allocation chunk for fresh records
	slabN int

	bslab  []bucket // current allocation chunk for fresh buckets
	bslabN int

	seq     uint64
	runs    uint64 // total events executed, for diagnostics
	pending int    // armed events across all buckets
}

var (
	_ Clock     = (*Virtual)(nil)
	_ Scheduler = (*Virtual)(nil)
	_ Rearmer   = (*Virtual)(nil)
)

// eventSlabSize is how many event records one allocation provides. Capacity
// runs arm tens of thousands of concurrent events (one per in-flight packet,
// one per paced session); chunking the records keeps the cold-start cost at
// a few dozen allocations instead of one per record.
const eventSlabSize = 256

// bucketSlabSize is the same chunking for bucket records. Egress
// serialization gives most in-flight packets a unique deadline, so the
// high-water mark of simultaneous buckets tracks the high-water mark of
// events; without slabs every fresh instant would cost a bucket allocation
// plus its first entry-slice allocation.
const bucketSlabSize = 64

// NewVirtual returns a Virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	c := &Virtual{
		now:       start,
		nowNanos:  start.UnixNano(),
		base:      start,
		baseNanos: start.UnixNano(),
	}
	c.nowAtomic.Store(c.nowNanos)
	return c
}

// Now implements Clock. It is lock-free: the instant is reconstructed from
// the clock's base time, which yields a value identical to the internally
// tracked c.now (both are exact integer arithmetic from the same start).
func (c *Virtual) Now() time.Time {
	return c.base.Add(time.Duration(c.nowAtomic.Load() - c.baseNanos))
}

// bucket holds every pending event for one deadline instant. Entries before
// cur have already been consumed (their slots are nil); entries at or after
// cur are armed, in seq order — appends are creation-ordered and removals
// preserve relative order.
type bucket struct {
	nanos int64     // deadline in UnixNano; the heap key, unique per bucket
	when  time.Time // the deadline as first computed, for advancing now
	index int       // position in the bucket heap
	cur   int       // next entry to fire
	evs   []*event
	// inline backs evs for the common case — most instants hold a single
	// event — so a fresh bucket needs no entry-slice allocation; evs only
	// moves to the heap when a shared instant outgrows it.
	inline [4]*event
}

// takeEventLocked returns a blank event record: free list first, then the
// current slab, growing a fresh slab when both run dry. Caller holds mu.
func (c *Virtual) takeEventLocked() *event {
	if ev := c.free; ev != nil {
		c.free = ev.nextFree
		ev.nextFree = nil
		return ev
	}
	if c.slabN == len(c.slab) {
		c.slab = make([]event, eventSlabSize)
		c.slabN = 0
	}
	ev := &c.slab[c.slabN]
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

// armLocked stamps a sequence number on ev and files it into the bucket for
// now+d, creating the bucket if the instant is fresh. Caller holds mu; ev
// must not be in any bucket.
func (c *Virtual) armLocked(ev *event, d time.Duration) {
	ev.seq = c.seq
	ev.state = statePending
	c.seq++

	nanos := c.nowNanos + int64(d)
	b := c.buckets.get(nanos)
	if b == nil {
		b = c.takeBucketLocked(d == 0)
		b.nanos = nanos
		b.when = c.now.Add(d)
		b.cur = 0
		c.buckets.put(nanos, b)
		c.pushBucketLocked(b)
	}
	ev.b = b
	ev.pos = len(b.evs)
	if len(b.evs) == cap(b.evs) && cap(b.evs) == len(b.inline) {
		// Outgrowing the inline array: jump straight to the steady-state
		// size for fan-in buckets instead of letting append double through
		// 8, 16, 32 — the grown backing stays with the record forever.
		// Recycled grown records usually hold a warm backing already, so
		// steal one (demoting the donor to the inline pool) before
		// allocating: fan-in instants mostly land on inline-backed records
		// popped from freeB, and without the steal every outgrow paid a
		// fresh slice while freeBBig sat on idle capacity.
		var evs []*event
		if n := len(c.freeBBig); n > 0 {
			donor := c.freeBBig[n-1]
			c.freeBBig[n-1] = nil
			c.freeBBig = c.freeBBig[:n-1]
			evs = donor.evs[:len(b.evs)]
			donor.evs = donor.inline[:0]
			c.freeB = append(c.freeB, donor)
		} else {
			evs = make([]*event, len(b.evs), 64)
		}
		copy(evs, b.evs)
		b.evs = evs
	}
	b.evs = append(b.evs, ev)
	c.pending++
}

// Rearm implements Rearmer: it re-arms a timer record from this clock for d
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
		c.unlinkLocked(ev)
	case stateFired:
		// Not queued; the record and its fn are intact and reusable.
	default:
		// stateStopped cleared fn; stateFree records may already back an
		// unrelated timer. Neither is safely re-armable.
		return false
	}
	c.armLocked(ev, d)
	return true
}

// takeBucketLocked issues a bucket record, preferring a grown one for
// same-instant deferrals (they fan many events into one bucket) and an
// inline-backed one for everything else. Caller holds mu.
func (c *Virtual) takeBucketLocked(big bool) *bucket {
	from := &c.freeB
	if big && len(c.freeBBig) > 0 || !big && len(c.freeB) == 0 {
		from = &c.freeBBig
	}
	if n := len(*from); n > 0 {
		b := (*from)[n-1]
		(*from)[n-1] = nil
		*from = (*from)[:n-1]
		return b
	}
	if c.bslabN == len(c.bslab) {
		c.bslab = make([]bucket, bucketSlabSize)
		c.bslabN = 0
	}
	b := &c.bslab[c.bslabN]
	c.bslabN++
	b.evs = b.inline[:0]
	return b
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
	return c.pending
}

// Executed returns the total number of events run so far.
func (c *Virtual) Executed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
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
// callback itself is already copied out. A drained bucket is left in place
// until its turn at the heap root comes again, so callbacks scheduling onto
// the same instant (zero-delay trampolines) append behind the cursor and
// fire this pass, in seq order. Caller holds mu.
func (c *Virtual) takeLocked(limitNanos int64, limited bool) func() {
	for {
		if len(c.bq) == 0 {
			return nil
		}
		if limited && c.bq[0].nanos > limitNanos {
			return nil
		}
		b := c.bq[0].b
		if b.cur == len(b.evs) {
			c.removeBucketLocked(b) // fully consumed; lazily reclaimed here
			continue
		}
		if b.nanos > c.nowNanos {
			c.now = b.when
			c.nowNanos = b.nanos
			c.nowAtomic.Store(b.nanos)
		}
		ev := b.evs[b.cur]
		b.evs[b.cur] = nil
		b.cur++
		c.runs++
		c.pending--
		ev.state = stateFired
		ev.b = nil
		fn := ev.fn
		if ev.autoFree {
			c.recycleLocked(ev)
		}
		return fn
	}
}

// Advance runs every event with a deadline at or before now+d, in order,
// then sets the clock to exactly now+d. It returns the number of events
// executed. Events scheduled by callbacks are included if they fall within
// the window.
func (c *Virtual) Advance(d time.Duration) int {
	c.mu.Lock()
	deadline := c.now.Add(d)
	c.mu.Unlock()
	return c.AdvanceTo(deadline)
}

// AdvanceTo runs every event with a deadline at or before t, then sets the
// clock to t (if t is later than the current time). It returns the number
// of events executed.
func (c *Virtual) AdvanceTo(t time.Time) int {
	limit := t.UnixNano()
	n := 0
	for {
		c.mu.Lock()
		fn := c.takeLocked(limit, true)
		if fn == nil {
			if limit > c.nowNanos {
				c.now = t
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
// Caller holds mu; the event must no longer be in any bucket.
func (c *Virtual) recycleLocked(ev *event) {
	ev.fn = nil
	ev.b = nil
	ev.state = stateFree
	ev.nextFree = c.free
	c.free = ev
}

// unlinkLocked removes a pending event from its bucket, preserving the
// relative order of the remaining entries, and reclaims the bucket if
// nothing pending is left in it. Caller holds mu.
func (c *Virtual) unlinkLocked(ev *event) {
	b := ev.b
	i := ev.pos
	last := len(b.evs) - 1
	copy(b.evs[i:], b.evs[i+1:])
	b.evs[last] = nil
	b.evs = b.evs[:last]
	for j := i; j < last; j++ {
		b.evs[j].pos = j
	}
	ev.b = nil
	c.pending--
	if b.cur == len(b.evs) {
		c.removeBucketLocked(b)
	}
}

// removeBucketLocked takes a bucket (drained or emptied by cancellations)
// out of the heap and the deadline map and recycles its record; the entry
// slice keeps its capacity for the next occupant. Caller holds mu.
func (c *Virtual) removeBucketLocked(b *bucket) {
	i := b.index
	last := len(c.bq) - 1
	c.swapLocked(i, last)
	c.bq[last] = bqEntry{}
	c.bq = c.bq[:last]
	b.index = -1
	if i < last {
		c.downLocked(i)
		c.upLocked(i)
	}
	c.buckets.del(b.nanos)
	b.evs = b.evs[:0]
	b.cur = 0
	if cap(b.evs) > len(b.inline) {
		c.freeBBig = append(c.freeBBig, b)
	} else {
		c.freeB = append(c.freeB, b)
	}
}

// Event lifecycle states.
const (
	statePending = uint8(iota) // armed, in a bucket
	stateFired                 // callback ran (or is about to run)
	stateStopped               // cancelled before firing
	stateFree                  // recycled onto the free list
)

// event is a pending Virtual callback; it doubles as the Timer handle.
type event struct {
	seq      uint64
	fn       func()
	c        *Virtual
	nextFree *event  // free-list link while recycled
	b        *bucket // owning bucket while pending
	pos      int     // position in b.evs; meaningless once consumed
	state    uint8
	autoFree bool // Schedule()-created: recycle on fire, no handle exists
}

var _ Timer = (*event)(nil)

// Stop implements Timer. A stopped event is removed from the queue
// immediately; its record is reclaimed by the garbage collector unless the
// caller also hands it back with Release.
func (ev *event) Stop() bool {
	ev.c.mu.Lock()
	defer ev.c.mu.Unlock()
	if ev.state != statePending {
		return false
	}
	ev.c.unlinkLocked(ev)
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
		c.unlinkLocked(ev)
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

// Heap primitives: a 4-ary min-heap over buckets keyed on their integer
// deadline, kept inline (no container/heap) so Push/Pop stay monomorphic and
// allocation-free. Keys are unique — one bucket per instant — so no
// tie-break is needed, and any heap arity pops the same order. Each entry
// carries its key beside the bucket pointer so sift comparisons walk the
// contiguous heap slice instead of dereferencing a cold bucket record per
// compare; four-way branching then halves the sift depth, trading compares
// that share a cache line for pointer hops that don't.

// bqEntry is one heap slot: the owning bucket and a copy of its deadline.
type bqEntry struct {
	nanos int64
	b     *bucket
}

func (c *Virtual) swapLocked(i, j int) {
	c.bq[i], c.bq[j] = c.bq[j], c.bq[i]
	c.bq[i].b.index = i
	c.bq[j].b.index = j
}

func (c *Virtual) pushBucketLocked(b *bucket) {
	b.index = len(c.bq)
	c.bq = append(c.bq, bqEntry{nanos: b.nanos, b: b})
	c.upLocked(b.index)
}

func (c *Virtual) upLocked(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if c.bq[i].nanos >= c.bq[parent].nanos {
			break
		}
		c.swapLocked(i, parent)
		i = parent
	}
}

func (c *Virtual) downLocked(i int) {
	n := len(c.bq)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		last := first + 4
		if last > n {
			last = n
		}
		least := first
		for k := first + 1; k < last; k++ {
			if c.bq[k].nanos < c.bq[least].nanos {
				least = k
			}
		}
		if c.bq[least].nanos >= c.bq[i].nanos {
			return
		}
		c.swapLocked(i, least)
		i = least
	}
}
