package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Tracing of the UDP tier, from outside the program: decorators at the
// transport.Endpoint and clock.Clock boundaries the benchmark hands to
// core.Deploy. Spans are aggregated in memory (count and log-bucket
// histogram); one root span in sampleEvery, with its children, also goes to
// a ring that is written out when the run ends.

// hist is a log-bucket histogram: 8 buckets per power of two of
// nanoseconds, atomic adds, no allocation.
type hist struct {
	count   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

const (
	histPerOctave = 8
	histBuckets   = histPerOctave * 44 // up to 2^44 ns, about 4.9 hours
)

func (h *hist) add(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log2(float64(ns)) * histPerOctave)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.count.Add(1)
	h.buckets[i].Add(1)
}

// quantileNS returns the geometric midpoint of the bucket holding the
// q-quantile; the resolution is one bucket, about 9 %.
func (h *hist) quantileNS(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return math.Exp2((float64(i) + 0.5) / histPerOctave)
		}
	}
	return 0
}

// span is one entry of the sampled ring.
type span struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Node    string  `json:"node"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

// spanCtx is the open span of one goroutine: the parent of the sends made
// before it closes.
type spanCtx struct {
	id      uint64
	sampled bool
	childNS int64
}

const (
	// detailEvery: one root span (timer callback, handler) in this many is
	// followed in detail — it is registered under its goroutine so that the
	// sends it makes find their parent, and its self time is histogrammed.
	// Finding the goroutine costs ~5 µs, more than most callbacks take, so
	// following every span would measure the tracer.
	detailEvery = 16
	// sampleEvery: one root in this many (a multiple of detailEvery), with
	// its children, is also kept in the ring.
	sampleEvery = 1024
	ringSize    = 4096
)

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	// active maps a goroutine to its open detailed span. Go has no
	// goroutine-local storage; the id is read off runtime.Stack. nActive
	// lets a send skip that lookup when no span is being followed.
	active  sync.Map // uint64 goroutine id → *spanCtx
	nActive atomic.Int64

	send, clientHandler, timerSelf, timerLate hist
	armed, fired                              atomic.Uint64

	ringMu sync.Mutex
	ring   []span

	// viewers is filled before traffic starts and read-only afterwards.
	viewers     map[transport.Addr]*viewerTrace
	gapWindowNS atomic.Int64 // gaps are taken from this offset after t0 on
}

// viewerTrace is written only by its endpoint's receive goroutine and read
// after the endpoint is closed.
type viewerTrace struct {
	firstFrameNS int64 // offset from t0 of the first video datagram; 0 = none
	lastFrameNS  int64
	maxGapNS     int64
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), viewers: map[transport.Addr]*viewerTrace{}}
	tr.gapWindowNS.Store(math.MaxInt64)
	return tr
}

func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// open starts a root span on the calling goroutine. Only a detailed span
// is registered for its children to find; for the rest ctx is nil.
func (tr *tracer) open() (ctx *spanCtx, g uint64) {
	id := tr.nextID.Add(1)
	if id%detailEvery != 0 {
		return nil, 0
	}
	ctx = &spanCtx{id: id, sampled: id%sampleEvery == 0}
	g = goid()
	tr.active.Store(g, ctx)
	tr.nActive.Add(1)
	return ctx, g
}

func (tr *tracer) close(ctx *spanCtx, g uint64) {
	if ctx != nil {
		tr.nActive.Add(-1)
		tr.active.Delete(g)
	}
}

func (tr *tracer) record(s span) {
	tr.ringMu.Lock()
	if len(tr.ring) < ringSize {
		tr.ring = append(tr.ring, s)
	} else {
		tr.ring[s.ID%ringSize] = s
	}
	tr.ringMu.Unlock()
}

func (tr *tracer) us(t time.Time) float64 { return float64(t.Sub(tr.t0).Nanoseconds()) / 1e3 }

// writeRing writes the sampled spans as JSON lines.
func (tr *tracer) writeRing(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.ringMu.Lock()
	for _, s := range tr.ring {
		if err := enc.Encode(s); err != nil {
			tr.ringMu.Unlock()
			f.Close()
			return err
		}
	}
	tr.ringMu.Unlock()
	return f.Close()
}

// ---------------------------------------------------------------------
// Endpoint decorator.

type tracedEndpoint struct {
	inner transport.Endpoint
	tr    *tracer
	node  string
	vt    *viewerTrace // nil on a server's endpoint
}

// hiddenSenders lists the methods of ep that an Endpoint-only wrapper
// would hide from the type assertions callers use to find a faster send
// path. It works on method names, not on the optional interfaces, so that
// deleting those interfaces does not break the benchmark.
func hiddenSenders(ep transport.Endpoint) []string {
	var hidden []string
	t := reflect.TypeOf(ep)
	for i := 0; i < t.NumMethod(); i++ {
		name := t.Method(i).Name
		if name == "Send" {
			continue
		}
		if strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Resolve") || strings.HasPrefix(name, "Preframe") {
			hidden = append(hidden, name)
		}
	}
	return hidden
}

// traceEndpoint wraps ep, refusing to if the wrapper would change which
// data plane runs.
func (tr *tracer) traceEndpoint(ep transport.Endpoint, vt *viewerTrace) (transport.Endpoint, error) {
	if hidden := hiddenSenders(ep); len(hidden) > 0 {
		return nil, fmt.Errorf("endpoint %T has optional send paths %v that the tracing decorator would hide; the traced run would measure a different data plane", ep, hidden)
	}
	return &tracedEndpoint{inner: ep, tr: tr, node: string(ep.Addr()), vt: vt}, nil
}

func (e *tracedEndpoint) Addr() transport.Addr { return e.inner.Addr() }
func (e *tracedEndpoint) Close() error         { return e.inner.Close() }

func (e *tracedEndpoint) Send(to transport.Addr, payload []byte) error {
	start := time.Now()
	err := e.inner.Send(to, payload)
	d := time.Since(start)
	e.tr.send.add(d)
	if e.tr.nActive.Load() == 0 {
		return err
	}
	if v, ok := e.tr.active.Load(goid()); ok {
		ctx := v.(*spanCtx)
		// The whole wrapper, lookup included, comes off the parent's self
		// time: none of it is the callback's own work.
		ctx.childNS += time.Since(start).Nanoseconds()
		if ctx.sampled {
			us := float64(d.Nanoseconds()) / 1e3
			e.tr.record(span{ID: e.tr.nextID.Add(1), Parent: ctx.id, Name: "udp_send", Node: e.node, StartUS: e.tr.us(start), DurUS: us, SelfUS: us})
		}
	}
	return err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.inner.SetHandler(nil)
		return
	}
	name := "server_handler"
	if e.vt != nil {
		name = "client_handler"
	}
	e.inner.SetHandler(func(from transport.Addr, payload []byte) {
		if e.vt != nil && len(payload) > 0 && payload[0] == byte(transport.ChannelVideo) {
			e.vt.frame(time.Since(e.tr.t0).Nanoseconds(), e.tr.gapWindowNS.Load())
		}
		ctx, g := e.tr.open()
		start := time.Now() // after open: its goroutine lookup is not the handler's time
		h(from, payload)
		d := time.Since(start)
		e.tr.close(ctx, g)
		if e.vt != nil {
			e.tr.clientHandler.add(d)
		}
		if ctx != nil && ctx.sampled {
			e.tr.record(span{ID: ctx.id, Name: name, Node: e.node, StartUS: e.tr.us(start),
				DurUS: float64(d.Nanoseconds()) / 1e3, SelfUS: float64(d.Nanoseconds()-ctx.childNS) / 1e3})
		}
	})
}

func (vt *viewerTrace) frame(nowNS, windowNS int64) {
	if vt.firstFrameNS == 0 {
		vt.firstFrameNS = nowNS
	}
	if vt.lastFrameNS != 0 && nowNS >= windowNS {
		if gap := nowNS - vt.lastFrameNS; gap > vt.maxGapNS {
			vt.maxGapNS = gap
		}
	}
	vt.lastFrameNS = nowNS
}

// ---------------------------------------------------------------------
// Clock decorator.

// tracedClock wraps a clock's callbacks; timers themselves are the inner
// clock's, so Stop and clock.Release see the same handles as untraced.
type tracedClock struct {
	inner clock.Clock
	sched clock.Scheduler // inner's fire-and-forget path, nil if it has none
	tr    *tracer
}

func (tr *tracer) traceClock(c clock.Clock) clock.Clock {
	tc := &tracedClock{inner: c, tr: tr}
	tc.sched, _ = c.(clock.Scheduler)
	if tc.sched == nil {
		// Without a Scheduler to forward to, the wrapper must not grow one.
		return struct{ clock.Clock }{tc}
	}
	return tc
}

func (c *tracedClock) Now() time.Time { return c.inner.Now() }

func (c *tracedClock) wrap(d time.Duration, f func()) func() {
	c.tr.armed.Add(1)
	if d < 0 {
		d = 0
	}
	due := time.Now().Add(d)
	return func() {
		c.tr.fired.Add(1)
		c.tr.timerLate.add(time.Since(due))
		ctx, g := c.tr.open()
		if ctx == nil {
			f()
			return
		}
		start := time.Now()
		f()
		dur := time.Since(start)
		c.tr.close(ctx, g)
		self := dur.Nanoseconds() - ctx.childNS
		c.tr.timerSelf.add(time.Duration(self))
		if ctx.sampled {
			c.tr.record(span{ID: ctx.id, Name: "timer_callback", StartUS: c.tr.us(start),
				DurUS: float64(dur.Nanoseconds()) / 1e3, SelfUS: float64(self) / 1e3})
		}
	}
}

func (c *tracedClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.inner.AfterFunc(d, c.wrap(d, f))
}

// Schedule forwards the clock.Scheduler fast path clock.Schedule looks for.
func (c *tracedClock) Schedule(d time.Duration, f func()) { c.sched.Schedule(d, c.wrap(d, f)) }
