// Package mpeg models MPEG-1 video streams as the paper's VoD service sees
// them: a sequence of typed frames (I/P/B) with realistic sizes, transmitted
// one frame per message. No pixel data is involved — every quantity the
// paper's evaluation measures (frames skipped, frames late, buffer
// occupancies in frames and bytes) depends only on frame timing, sizes and
// types, which this model reproduces.
//
// This substitutes for the paper's real MPEG movies and Optibase hardware
// decoders (see DESIGN.md, substitution 2).
package mpeg

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// FrameInfo describes one frame of a movie.
type FrameInfo struct {
	Class wire.FrameClass
	Size  int // bytes on the wire
}

// StreamConfig parameterizes synthetic movie generation. Every generated
// movie is the paper's test stream: a 1.4 Mbps, 30 frames/s MPEG movie
// with a 12-frame GOP (IBBPBBPBBPBB).
type StreamConfig struct {
	// Duration of the movie (default 90s, enough for the paper's
	// evaluation scenarios).
	Duration time.Duration
	// Seed drives the per-frame size variation.
	Seed int64
}

// The generated stream's shape.
const (
	genFPS     = 30        // nominal display rate
	genBitRate = 1_400_000 // mean stream rate, bits/s
	gopSize    = 12        // group-of-pictures length
)

// Movie is an immutable synthetic MPEG stream. Safe for concurrent use.
// The process holds one Movie per title (see titles): Generate and Parse
// return the one already held when they would build an equal one.
type Movie struct {
	id     string
	fps    int
	frames []FrameInfo
	total  int64        // sum of frame sizes
	gen    StreamConfig // Generate's filled-in config; zero for a parsed title

	pktMu sync.Mutex            // guards the lazily built pkts and file
	pkts  map[byte]*PacketTable // keyed by channel prefix
	file  []byte
}

// Generate synthesizes a movie with the given ID and stream parameters.
//
// The GOP structure follows MPEG-1 practice with M=3: an I frame, then
// P frames every third slot with B frames between (IBBPBBPBB...). Frame
// sizes use the usual compression ratios (I ≈ 4x, P ≈ 2x, B ≈ 0.7x the
// base unit) scaled so the stream hits the configured mean bit rate, with
// ±10% deterministic per-frame variation. A title is a pure function of id
// and the filled-in cfg, so a repeat call returns the held Movie.
func Generate(id string, cfg StreamConfig) *Movie {
	if cfg.Duration <= 0 {
		cfg.Duration = 90 * time.Second
	}
	if m := title(func(h *Movie) bool { return h.id == id && h.gen == cfg }, nil); m != nil {
		return m
	}
	n := int(cfg.Duration.Seconds() * float64(genFPS))
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Weights per GOP position; the base unit is solved from the target
	// mean frame size.
	weightOf := func(class wire.FrameClass) float64 {
		switch class {
		case wire.FrameI:
			return 4.0
		case wire.FrameP:
			return 2.0
		default:
			return 0.7
		}
	}
	var weightSum float64
	for i := 0; i < gopSize; i++ {
		weightSum += weightOf(classAt(i))
	}
	meanFrame := float64(genBitRate) / 8 / float64(genFPS)
	unit := meanFrame * float64(gopSize) / weightSum

	m := &Movie{id: id, fps: genFPS, frames: make([]FrameInfo, n), gen: cfg}
	for i := 0; i < n; i++ {
		class := classAt(i % gopSize)
		jitter := 0.9 + 0.2*rng.Float64()
		size := int(unit * weightOf(class) * jitter)
		if size < 64 {
			size = 64
		}
		m.frames[i] = FrameInfo{Class: class, Size: size}
		m.total += int64(size)
	}
	return intern(m)
}

// classAt returns the frame class at GOP position pos (0-based).
func classAt(pos int) wire.FrameClass {
	switch {
	case pos == 0:
		return wire.FrameI
	case pos%3 == 0:
		return wire.FrameP
	default:
		return wire.FrameB
	}
}

// ID returns the movie identifier.
func (m *Movie) ID() string { return m.id }

// FPS returns the nominal display rate.
func (m *Movie) FPS() int { return m.fps }

// TotalFrames returns the number of frames in the movie.
func (m *Movie) TotalFrames() int { return len(m.frames) }

// Duration returns the playing time at the nominal rate.
func (m *Movie) Duration() time.Duration {
	return time.Duration(len(m.frames)) * time.Second / time.Duration(m.fps)
}

// meanBitRate returns the stream's mean rate in bits/s.
func (m *Movie) meanBitRate() int64 {
	if len(m.frames) == 0 {
		return 0
	}
	return m.total * 8 * int64(m.fps) / int64(len(m.frames))
}

// Frame returns the metadata of frame i. It panics on out-of-range i, which
// is always a caller bug (offsets are validated at the protocol layer).
func (m *Movie) Frame(i int) FrameInfo {
	return m.frames[i]
}

// PacketTable holds every frame of one movie as a fully framed, ready-to-send
// datagram: a transport channel prefix byte followed by the wire-encoded
// Frame message. The model needs a payload's length, never its contents, so
// the table is one tape of per-frame slots — slot i, at i·per, holds the
// prefix and frame i's header — followed by a zeroed tail, and packet i is
// its slot plus the next Size bytes: its own exact header, then whatever
// follows on the tape (the headers of frames i+1, … and tail zeros) as
// payload. Packets therefore overlap: they are immutable, capacity-clipped
// and must never be written through, or a neighbour's header changes. All
// sessions streaming the movie share the table and ship its slices over a
// no-copy stable-send path. Safe for concurrent use.
type PacketTable struct {
	tape   []byte
	per    int // slot size: prefix byte + frame header
	frames []FrameInfo
}

// Packet returns the framed datagram for frame i. The slice aliases the
// shared tape and must never be written to; its capacity is clipped so even
// an append cannot reach the bytes after it.
func (t *PacketTable) Packet(i int) []byte {
	lo := i * t.per
	hi := lo + t.per + t.frames[i].Size
	return t.tape[lo:hi:hi]
}

// WireSize returns the size of frame i's encoded Frame message, excluding
// the one-byte channel prefix — the number a per-message sender would have
// counted before handing the message to the mux.
func (t *PacketTable) WireSize(i int) int {
	return t.per - 1 + t.frames[i].Size
}

// Packets returns the movie's shared table of preframed datagrams for the
// given channel prefix byte, building it on first use in one exactly-sized
// allocation of n·per bytes plus the tail the longest-reaching payload
// needs (≈73 KB for a 90 s title). Each packet's bytes up to its payload are
// what a per-session encoder would produce: prefix, then AppendMessage of a
// Frame{Movie, Index, Class, Payload} with a payload of the frame's size.
func (m *Movie) Packets(prefix byte) *PacketTable {
	m.pktMu.Lock()
	defer m.pktMu.Unlock()
	if t, ok := m.pkts[prefix]; ok {
		return t
	}
	n := len(m.frames)
	per := 1 + wire.FrameHeaderSize(m.id)
	tail := 0
	for i, f := range m.frames {
		tail = max(tail, f.Size-(n-1-i)*per)
	}
	tape := make([]byte, 0, n*per+tail)
	for i, f := range m.frames {
		tape = append(tape, prefix)
		tape = wire.AppendFrameHeader(tape, m.id, uint32(i), f.Class, f.Size)
	}
	t := &PacketTable{tape: tape[:cap(tape)], per: per, frames: m.frames}
	if m.pkts == nil {
		m.pkts = make(map[byte]*PacketTable, 1)
	}
	m.pkts[prefix] = t
	return t
}

// PrevIFrame returns the largest I-frame index ≤ i. Random access lands on
// I frames because incremental frames cannot be decoded without them.
func (m *Movie) PrevIFrame(i int) int {
	if i >= len(m.frames) {
		i = len(m.frames) - 1
	}
	for ; i > 0; i-- {
		if m.frames[i].Class == wire.FrameI {
			return i
		}
	}
	return 0
}

// NextIFrame returns the smallest I-frame index ≥ i, or -1 if none remains.
func (m *Movie) NextIFrame(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < len(m.frames); i++ {
		if m.frames[i].Class == wire.FrameI {
			return i
		}
	}
	return -1
}

// String implements fmt.Stringer.
func (m *Movie) String() string {
	return fmt.Sprintf("movie %s: %d frames, %v, %d kbit/s",
		m.id, len(m.frames), m.Duration(), m.meanBitRate()/1000)
}
