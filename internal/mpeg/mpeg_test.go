package mpeg

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func paperMovie() *Movie {
	return Generate("casablanca", StreamConfig{Seed: 1})
}

func TestGenerateDefaults(t *testing.T) {
	m := paperMovie()
	if got := m.TotalFrames(); got != 2700 {
		t.Fatalf("TotalFrames = %d, want 2700 (90s × 30fps)", got)
	}
	if got := m.FPS(); got != 30 {
		t.Fatalf("FPS = %d, want 30", got)
	}
	if got := m.Duration(); got != 90*time.Second {
		t.Fatalf("Duration = %v, want 90s", got)
	}
}

func TestMeanBitRateNearTarget(t *testing.T) {
	m := paperMovie()
	rate := m.meanBitRate()
	if rate < 1_330_000 || rate > 1_470_000 {
		t.Fatalf("mean bit rate %d outside ±5%% of 1.4 Mbps", rate)
	}
}

func TestGOPStructure(t *testing.T) {
	m := paperMovie()
	// GOP of 12 with M=3: positions 0=I, 3/6/9=P, rest B.
	for i := 0; i < 48; i++ {
		got := m.Frame(i).Class
		var want wire.FrameClass
		switch {
		case i%12 == 0:
			want = wire.FrameI
		case i%3 == 0:
			want = wire.FrameP
		default:
			want = wire.FrameB
		}
		if got != want {
			t.Fatalf("frame %d class = %v, want %v", i, got, want)
		}
	}
}

func TestFrameSizeOrdering(t *testing.T) {
	m := paperMovie()
	// Averaged over the movie, I frames must be much larger than P, and
	// P larger than B — the compression structure the discard policy
	// depends on.
	var sum [4]int64
	var cnt [4]int64
	for i := 0; i < m.TotalFrames(); i++ {
		f := m.Frame(i)
		sum[f.Class] += int64(f.Size)
		cnt[f.Class]++
	}
	avgI := sum[wire.FrameI] / cnt[wire.FrameI]
	avgP := sum[wire.FrameP] / cnt[wire.FrameP]
	avgB := sum[wire.FrameB] / cnt[wire.FrameB]
	if !(avgI > avgP && avgP > avgB) {
		t.Fatalf("size ordering violated: I=%d P=%d B=%d", avgI, avgP, avgB)
	}
	if float64(avgI) < 1.8*float64(avgP) {
		t.Fatalf("I frames (%d) not ≫ P frames (%d)", avgI, avgP)
	}
}

func TestFramesFitInDatagram(t *testing.T) {
	m := paperMovie()
	for i := 0; i < m.TotalFrames(); i++ {
		if s := m.Frame(i).Size; s > 50_000 {
			t.Fatalf("frame %d is %d bytes; exceeds one-frame-per-datagram design", i, s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("m", StreamConfig{Seed: 42})
	b := Generate("m", StreamConfig{Seed: 42})
	if !slices.Equal(a.frames, b.frames) {
		t.Fatal("same seed produced different movies")
	}
	c := Generate("m", StreamConfig{Seed: 43})
	if slices.Equal(a.frames, c.frames) {
		t.Fatal("different seeds produced identical movies (suspicious)")
	}
}

// TestFrameData: a packet past its prefix decodes to the frame it
// stands for, with a payload of exactly the frame's size.
func TestFrameData(t *testing.T) {
	m := paperMovie()
	var f wire.Frame
	if err := wire.DecodeFrameInto(&f, m.Packets(0).Packet(1234)[1:]); err != nil {
		t.Fatal(err)
	}
	if f.Movie != m.ID() || f.Index != 1234 || f.Class != m.Frame(1234).Class {
		t.Fatalf("packet 1234 decodes to %s/%d/%v", f.Movie, f.Index, f.Class)
	}
	if len(f.Payload) != m.Frame(1234).Size {
		t.Fatalf("payload length %d != declared size %d", len(f.Payload), m.Frame(1234).Size)
	}
}

func TestPrevNextIFrame(t *testing.T) {
	m := paperMovie()
	tests := []struct {
		in, prev, next int
	}{
		{0, 0, 0},
		{1, 0, 12},
		{11, 0, 12},
		{12, 12, 12},
		{13, 12, 24},
		{2699, 2688, -1},
	}
	for _, tt := range tests {
		if got := m.PrevIFrame(tt.in); got != tt.prev {
			t.Errorf("PrevIFrame(%d) = %d, want %d", tt.in, got, tt.prev)
		}
		if got := m.NextIFrame(tt.in); got != tt.next {
			t.Errorf("NextIFrame(%d) = %d, want %d", tt.in, got, tt.next)
		}
	}
}

func TestPrevIFrameClampsOutOfRange(t *testing.T) {
	m := paperMovie()
	if got := m.PrevIFrame(99999); got != 2688 {
		t.Fatalf("PrevIFrame(out of range) = %d, want last I frame 2688", got)
	}
	if got := m.NextIFrame(-5); got != 0 {
		t.Fatalf("NextIFrame(-5) = %d, want 0", got)
	}
}

// TestIFrameReachableProperty: from any frame, PrevIFrame lands on an I
// frame at or before it — the invariant seeks rely on.
func TestIFrameReachableProperty(t *testing.T) {
	m := paperMovie()
	prop := func(i uint16) bool {
		idx := int(i) % m.TotalFrames()
		p := m.PrevIFrame(idx)
		return p <= idx && m.Frame(p).Class == wire.FrameI
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShortMovie(t *testing.T) {
	m := Generate("short", StreamConfig{Duration: 100 * time.Millisecond})
	if m.TotalFrames() != 3 {
		t.Fatalf("TotalFrames = %d, want 3", m.TotalFrames())
	}
	if m.Frame(0).Class != wire.FrameI {
		t.Fatal("movie must start with an I frame")
	}
}

func BenchmarkGenerate90s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		coldTitle(b, "m", StreamConfig{Seed: int64(i)})
	}
}
