package mpeg

import (
	"bytes"
	"runtime"
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
		out.TotalFrames() != in.TotalFrames() || out.TotalBytes() != in.TotalBytes() {
		t.Fatalf("round trip header mismatch: %v vs %v", out, in)
	}
	for i := 0; i < in.TotalFrames(); i++ {
		if in.Frame(i) != out.Frame(i) {
			t.Fatalf("frame %d differs: %+v vs %+v", i, in.Frame(i), out.Frame(i))
		}
	}
	// Payload regeneration is deterministic from structure alone.
	if !bytes.Equal(in.FrameData(123), out.FrameData(123)) {
		t.Fatal("frame data differs after round trip")
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

// hostileHeader is a complete, plausible header claiming frames frame
// records with none following — what a peer or a damaged disk can send.
func hostileHeader(frames uint32) []byte {
	b := append([]byte(fileMagic), fileVersion)
	b = wire.AppendString(b, "m")
	b = wire.AppendU16(b, 30)
	return wire.AppendU32(b, frames)
}

// TestReadFromBoundsFrameCount: the frame count is checked against the
// bytes actually present before the table is reserved. 1<<26 passes the
// plausibility bound and used to reserve 1 GiB ahead of the first record.
func TestReadFromBoundsFrameCount(t *testing.T) {
	data := hostileHeader(1 << 26)
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

// FuzzReadFrom drives the movie-file decoder — reachable from the network
// through fetch and from disk through store — with arbitrary bytes: no
// panics, and whatever it accepts must serialize back to the same bytes.
func FuzzReadFrom(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Generate("m", StreamConfig{Duration: time.Second, Seed: 1}).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	f.Add(hostileHeader(1 << 26))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if _, err := m.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("re-serialized movie differs from its %d-byte input", len(data))
		}
	})
}
