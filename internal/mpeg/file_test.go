package mpeg

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func TestFileRoundTrip(t *testing.T) {
	in := Generate("casablanca", StreamConfig{Duration: 10 * time.Second, Seed: 3})
	var buf bytes.Buffer
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID() != in.ID() || out.FPS() != in.FPS() ||
		out.TotalFrames() != in.TotalFrames() {
		t.Fatalf("round trip header mismatch: %v vs %v", out, in)
	}
	for i := 0; i < in.TotalFrames(); i++ {
		if in.Frame(i) != out.Frame(i) {
			t.Fatalf("frame %d differs: %+v vs %+v", i, in.Frame(i), out.Frame(i))
		}
	}
	// Packets are a function of the frame table alone.
	pin, pout := in.Packets(testPrefix), out.Packets(testPrefix)
	for i := 0; i < in.TotalFrames(); i++ {
		if !bytes.Equal(pin.Packet(i), pout.Packet(i)) {
			t.Fatalf("packet %d differs after round trip", i)
		}
	}
}

func TestReadFromRejectsCorrupt(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		m := Generate("m", StreamConfig{Duration: time.Second, Seed: 1})
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("NOPE"), good[4:]...),
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0xFF),
		"zero version": append([]byte(fileMagic), 0),
	}
	for name, data := range cases {
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt file accepted", name)
		}
	}
}

// TestReadFromNeverPanics: arbitrary bytes must fail cleanly.
func TestReadFromNeverPanics(t *testing.T) {
	prop := func(data []byte) bool {
		_, _ = ReadFrom(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// hostileHeader is a complete, plausible header for title id claiming
// frames frame records with none following — what a peer or a damaged disk
// can send.
func hostileHeader(id string, frames uint32) []byte {
	b := append([]byte(fileMagic), fileVersion)
	b = wire.AppendString(b, id)
	b = wire.AppendU16(b, 30)
	return wire.AppendU32(b, frames)
}

// TestReadFromBoundsIDLen: the packet table repeats the title ID once per
// frame, so a long ID would make a small file cost a large table at its
// first Open. IDs past maxIDLen are refused, and on the worst file that is
// accepted — the longest ID, every frame one byte but a last one of the
// largest size — the table costs at most 16× the file plus 1 MB of tail.
func TestReadFromBoundsIDLen(t *testing.T) {
	file := func(id string, frames int) []byte {
		b := hostileHeader(id, uint32(frames))
		for i := 0; i < frames; i++ {
			size := uint32(1)
			if i == frames-1 {
				size = 1 << 20
			}
			b = wire.AppendU8(b, uint8(wire.FrameI))
			b = wire.AppendU32(b, size)
		}
		return b
	}
	for _, n := range []int{maxIDLen + 1, 65535} {
		if _, err := ReadFrom(bytes.NewReader(file(strings.Repeat("x", n), 1000))); err == nil {
			t.Errorf("%d-byte ID accepted", n)
		}
	}

	data := file(strings.Repeat("x", maxIDLen), 10000)
	m, err := ReadFrom(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Packets(testPrefix)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<20); got > limit {
		t.Errorf("table of a %d-byte file allocated %d bytes, want ≤ 16× + 1 MB = %d", len(data), got, limit)
	}
}

// TestReadFromBoundsFrameCount: the frame count is checked against the
// bytes actually present before the table is reserved. 1<<26 passes the
// plausibility bound and used to reserve 1 GiB ahead of the first record.
func TestReadFromBoundsFrameCount(t *testing.T) {
	data := hostileHeader("m", 1<<26)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header claiming 1<<26 frames with no records accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a %d-byte hostile header allocated %d bytes, want < 1 MB", len(data), got)
	}
}

// TestParseKeepsNoReference: a fetched file is parsed where the transfer
// landed it, so a movie built from it must own everything it keeps of the
// bytes.
func TestParseKeepsNoReference(t *testing.T) {
	orig := Generate("casablanca", StreamConfig{Duration: 2 * time.Second, Seed: 3}).File()
	data := bytes.Clone(orig)
	forgetTitles()
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !bytes.Equal(m.File(), orig) {
		t.Fatal("overwriting the parsed bytes changed the movie")
	}
}

// FuzzReadFrom drives the movie-file decoder — reachable from the network
// through fetch (Parse) and from disk through store (ReadFrom) — with
// arbitrary bytes: no panics, and ReadFrom on an empty title table agrees
// with Parse while a title of the seeds' header is held — the same error
// text, or the same frames, and the held title exactly when the input is its
// file. Whatever they accept must serialize back to the same bytes, and
// every packet of its table must decode to its own frame with a payload of
// the frame's size.
func FuzzReadFrom(f *testing.F) {
	cfg := StreamConfig{Duration: time.Second, Seed: 1}
	good := Generate("m", cfg).File()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	f.Add(hostileHeader("m", 1<<26))
	f.Add([]byte{})
	// Near misses of the held title: one record's class or size changed,
	// within the bounds and past them.
	rec := len(good) - 3*frameRecordSize
	for _, r := range []FrameInfo{{wire.FrameP, 700}, {wire.FrameB, 0}, {wire.FrameB, 1<<20 + 1}, {0, 700}, {wire.FrameB + 1, 700}} {
		near := bytes.Clone(good)
		near[rec] = byte(r.Class)
		copy(near[rec+1:], wire.AppendU32(nil, uint32(r.Size)))
		f.Add(near)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		forgetTitles()
		m, err := ReadFrom(bytes.NewReader(data))
		forgetTitles()
		held := Generate("m", cfg)
		pm, perr := Parse(data)
		if fmt.Sprint(err) != fmt.Sprint(perr) {
			t.Fatalf("ReadFrom with no title held says %v, Parse with one held says %v", err, perr)
		}
		if err != nil {
			return
		}
		if pm.id != m.id || pm.fps != m.fps || pm.total != m.total || !slices.Equal(pm.frames, m.frames) {
			t.Fatalf("Parse with a title held gave other frames than ReadFrom with none")
		}
		if (pm == held) != bytes.Equal(data, held.File()) {
			t.Fatalf("Parse gave the held title %v, input is its file %v", pm == held, bytes.Equal(data, held.File()))
		}
		var re bytes.Buffer
		if _, err := m.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("re-serialized movie differs from its %d-byte input", len(data))
		}
		if !bytes.Equal(pm.File(), data) {
			t.Fatalf("parsed movie serializes differently from its %d-byte input", len(data))
		}
		tab := m.Packets(testPrefix)
		var f wire.Frame
		for i := 0; i < m.TotalFrames(); i++ {
			pkt := tab.Packet(i)
			if err := wire.DecodeFrameInto(&f, pkt[1:]); err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			if f.Movie != m.ID() || f.Index != uint32(i) || f.Class != m.Frame(i).Class {
				t.Fatalf("packet %d decodes to %q/%d/%v", i, f.Movie, f.Index, f.Class)
			}
			if len(f.Payload) != m.Frame(i).Size || cap(pkt) != len(pkt) {
				t.Fatalf("packet %d: payload %d bytes for a %d-byte frame, cap %d len %d",
					i, len(f.Payload), m.Frame(i).Size, cap(pkt), len(pkt))
			}
		}
	})
}
