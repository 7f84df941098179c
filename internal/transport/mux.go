package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ChannelID tags each datagram with the logical plane it belongs to.
type ChannelID byte

// The planes used by the VoD service. Control (GCS membership + reliable
// multicast) and video frames share one endpoint per node, as they share
// one UDP stack in the paper's prototype.
const (
	ChannelGCS ChannelID = iota + 1
	ChannelVideo
	// ChannelDirectory carries CONGRESS group-address resolution traffic
	// (registrations and lookups).
	ChannelDirectory
	// ChannelBulk carries movie replication requests (package fetch);
	// ChannelBulkReply carries the chunks back. Two channels because each
	// side of a transfer owns one inbound handler.
	ChannelBulk
	ChannelBulkReply
)

// Mux splits a single Endpoint into independent logical channels by
// prefixing every datagram with a one-byte channel ID. Each Channel is
// itself an Endpoint, so higher layers are unaware of the sharing.
type Mux struct {
	ep Endpoint

	// stable is ep's StableSender extension, asserted once here rather than
	// on every send; nil when the endpoint (UDP) has none.
	stable StableSender

	// chans holds one slot per ChannelID, indexed by the ID: dispatch runs
	// once per delivered datagram — millions of times in a scale run — and
	// finds its channel with one atomic load.
	chans [lastChannel + 1]atomic.Pointer[Channel]
}

// lastChannel is the highest ChannelID; the mux has a slot for each up to it.
const lastChannel = ChannelBulkReply

// NewMux wraps ep. The mux takes over ep's handler; callers must not call
// ep.SetHandler afterwards.
func NewMux(ep Endpoint) *Mux {
	m := &Mux{ep: ep}
	m.stable, _ = ep.(StableSender)
	ep.SetHandler(m.dispatch)
	return m
}

// Channel returns the channel for id, creating it on first use. Calling
// Channel twice with the same id returns the same *Channel. It panics on an
// id past the last ChannelID constant.
func (m *Mux) Channel(id ChannelID) *Channel {
	if id > lastChannel {
		panic(fmt.Sprintf("transport: channel %d past the last channel ID %d", id, lastChannel))
	}
	slot := &m.chans[id]
	if ch := slot.Load(); ch != nil {
		return ch
	}
	ch := &Channel{mux: m, id: id}
	if !slot.CompareAndSwap(nil, ch) {
		return slot.Load() // a concurrent first call won
	}
	return ch
}

// Close closes the underlying endpoint and all channels.
func (m *Mux) Close() error {
	return m.ep.Close()
}

func (m *Mux) dispatch(from Addr, payload []byte) {
	if len(payload) == 0 {
		return
	}
	id := ChannelID(payload[0])
	if id > lastChannel {
		return // no such plane; drop like UDP would
	}
	ch := m.chans[id].Load()
	if ch == nil {
		return // no listener on this plane; drop like UDP would
	}
	if h, _ := ch.handler.Load().(Handler); h != nil {
		h(from, payload[1:])
	}
}

// Channel is one logical plane of a Mux: an Endpoint whose datagrams carry
// the channel's ID byte, plus a preframed send path for payloads that were
// built with that byte already in front.
//
// The endpoint's StableSender is kept on the Mux, so with the handler's two-word
// slot a Channel is 64 bytes on 64-bit platforms, in the 64-byte size class.
type Channel struct {
	mux *Mux
	id  ChannelID

	// handler holds a Handler, nil or not, in an atomic.Value rather than a
	// mutex-guarded field: dispatch reads it per delivered datagram. A func
	// value is one pointer, so storing it boxes nothing and SetHandler does
	// not allocate.
	handler atomic.Value

	sendMu  sync.Mutex
	scratch []byte // reusable framing buffer, guarded by sendMu
}

var _ Endpoint = (*Channel)(nil)

func (c *Channel) Addr() Addr { return c.mux.ep.Addr() }

func (c *Channel) Send(to Addr, payload []byte) error {
	if len(payload) > MaxDatagram-1 {
		return fmt.Errorf("channel %d to %s: %w", c.id, to, ErrTooLarge)
	}
	// Frame into a per-channel scratch buffer instead of a fresh slice:
	// Endpoint.Send does not retain the payload after returning, so the
	// buffer is free for reuse as soon as the nested Send completes. The
	// whole datagram is reserved first, so the scratch grows at most once.
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	framed := append(slices.Grow(c.scratch[:0], 1+len(payload)), byte(c.id))
	framed = append(framed, payload...)
	c.scratch = framed[:0]
	return c.mux.ep.Send(to, framed)
}

// Preframe returns the one-byte prefix a preframed payload must start with:
// this channel's ID, the layout produced by framing a message with it at
// build time.
func (c *Channel) Preframe() byte { return byte(c.id) }

// SendPreframed sends a payload that already begins with Preframe() and is
// immutable for the process lifetime (the StableSender obligation): no copy
// is made to add the prefix, and a StableSender endpoint ships the caller's
// buffer itself, as one delivery. Over an endpoint without the StableSender
// extension the wire layout is identical and the endpoint copies. A payload
// that cannot go out on this channel as is is refused before it reaches the
// endpoint.
func (c *Channel) SendPreframed(to Addr, payload []byte) error {
	if len(payload) == 0 || payload[0] != byte(c.id) {
		return fmt.Errorf("channel %d to %s: preframed payload does not carry this channel's prefix", c.id, to)
	}
	if len(payload) > MaxDatagram {
		return fmt.Errorf("channel %d to %s: %w", c.id, to, ErrTooLarge)
	}
	if c.mux.stable == nil {
		return c.mux.ep.Send(to, payload)
	}
	return c.mux.stable.SendStable(to, payload)
}

func (c *Channel) SetHandler(h Handler) { c.handler.Store(h) }

// Close detaches this channel's handler; the shared endpoint stays open for
// the other planes.
func (c *Channel) Close() error {
	c.SetHandler(nil)
	return nil
}
