package mpeg

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

const testPrefix = 0x02

// checkPacket checks packet i of tab against the layout: the prefix and
// frame i's exact header, a payload of the frame's size that the encoder
// would frame into the same bytes, and a capacity clipped at its end.
func checkPacket(t *testing.T, m *Movie, tab *PacketTable, i int) bool {
	t.Helper()
	info := m.Frame(i)
	got := tab.Packet(i)
	header := wire.AppendFrameHeader([]byte{testPrefix}, m.ID(), uint32(i), info.Class, info.Size)
	switch {
	case len(got) != len(header)+info.Size:
		t.Errorf("packet %d is %d bytes, want header %d + payload %d", i, len(got), len(header), info.Size)
	case cap(got) != len(got):
		t.Errorf("packet %d: cap %d > len %d, an append could reach the tape after it", i, cap(got), len(got))
	case tab.WireSize(i) != len(got)-1:
		t.Errorf("WireSize(%d) = %d, want %d", i, tab.WireSize(i), len(got)-1)
	case !bytes.Equal(got[:len(header)], header):
		t.Errorf("packet %d: header differs from prefix + AppendFrameHeader", i)
	case !bytes.Equal(got, wire.AppendMessage([]byte{testPrefix}, &wire.Frame{
		Movie: m.ID(), Index: uint32(i), Class: info.Class, Payload: got[len(header):],
	})):
		t.Errorf("packet %d differs from prefix + AppendMessage(Frame) of its own payload", i)
	default:
		return true
	}
	return false
}

// TestPacketsMatchEncoder walks every frame of a 1001-frame table: each
// packet is its own header and a payload of its size, and that payload is
// the tape that follows — packet i+1's bytes first, zeros past the last slot.
func TestPacketsMatchEncoder(t *testing.T) {
	m := Generate("feature", StreamConfig{Duration: 1001 * time.Second / 30, Seed: 7})
	tab := m.Packets(testPrefix)
	n := m.TotalFrames()
	for i := 0; i < n; i++ {
		if !checkPacket(t, m, tab, i) {
			return
		}
		payload := tab.Packet(i)[tab.per:]
		if i+1 < n {
			next := tab.Packet(i + 1)
			k := min(len(payload), len(next))
			if !bytes.Equal(payload[:k], next[:k]) {
				t.Fatalf("packet %d's payload does not start with packet %d's bytes", i, i+1)
			}
		}
		if past := (n - 1 - i) * tab.per; len(payload) > past {
			if tail := payload[past:]; !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("packet %d reaches past the last slot into non-zero bytes", i)
			}
		}
	}
}

// TestAllocsPacketsOneTape: building a table is one exactly-sized tape —
// the heap grows by the tape's length, not by an append's doublings — and a
// second call returns the same table for nothing.
func TestAllocsPacketsOneTape(t *testing.T) {
	m := coldTitle(t, "feature", StreamConfig{Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := m.Packets(testPrefix)
	runtime.ReadMemStats(&after)

	if len(tab.tape) != cap(tab.tape) {
		t.Fatalf("tape len %d != cap %d", len(tab.tape), cap(tab.tape))
	}
	// Slack: the large-object size class rounds to 8 KB, plus the table
	// header and the movie's prefix map.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(tab.tape))+9<<10; got > limit {
		t.Errorf("Packets allocated %d bytes for a %d-byte tape, want ≤ %d", got, len(tab.tape), limit)
	}
	if got := testing.AllocsPerRun(100, func() {
		if m.Packets(testPrefix) != tab {
			t.Fatal("Packets built a second table for the same prefix")
		}
	}); got != 0 {
		t.Errorf("Packets on a built table: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { tab.Packet(3) }); got != 0 {
		t.Errorf("Packet: %v allocs, want 0", got)
	}
}

// TestPacketsTouchOnlyTheirChunk: a movie read back from its file form by a
// process that does not hold the title, resumed at frame k, sends what the
// original sends from k on — a payload is a function of the frame table —
// out of a table of its own: one tape, exactly the original's size. (A
// process that holds the title gets the original back:
// TestParseReturnsHeldTitle.)
func TestPacketsTouchOnlyTheirChunk(t *testing.T) {
	orig := Generate("feature", StreamConfig{Seed: 5})
	var file bytes.Buffer
	if _, err := orig.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	forgetTitles()
	m, err := ReadFrom(&file)
	if err != nil {
		t.Fatal(err)
	}
	const k = 1000
	tab, own := m.Packets(testPrefix), orig.Packets(testPrefix)
	if !checkPacket(t, m, tab, k) {
		return
	}
	if &tab.tape[0] == &own.tape[0] {
		t.Fatal("the read-back copy shares the original's tape")
	}
	if len(tab.tape) != cap(tab.tape) || len(tab.tape) != len(own.tape) {
		t.Errorf("copy's tape len %d cap %d, want the original's %d", len(tab.tape), cap(tab.tape), len(own.tape))
	}
	for i := k; i < m.TotalFrames(); i++ {
		if !bytes.Equal(tab.Packet(i), own.Packet(i)) {
			t.Fatalf("packet %d of the read-back copy differs from the original's", i)
		}
	}
}

// TestPacketsConcurrent: 8 goroutines asking one fresh Movie for its table
// get the same one; under -race it checks the build is published safely.
func TestPacketsConcurrent(t *testing.T) {
	m := coldTitle(t, "feature", StreamConfig{Duration: 20 * time.Second, Seed: 3})
	tabs := make([]*PacketTable, 8)
	var wg sync.WaitGroup
	for g := range tabs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tabs[g] = m.Packets(testPrefix)
			for i := g; i < m.TotalFrames(); i += len(tabs) {
				if !checkPacket(t, m, tabs[g], i) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, tab := range tabs {
		if tab != tabs[0] {
			t.Fatalf("goroutine %d got a different table", g)
		}
	}
}

// TestPacketsFirstTouchCost pins what opening a long title costs: the whole
// table, built eagerly, is the headers of its frames plus one frame of tail.
func TestPacketsFirstTouchCost(t *testing.T) {
	m := coldTitle(t, "epic", StreamConfig{Duration: 2 * time.Hour, Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tab := m.Packets(testPrefix)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	if !checkPacket(t, m, tab, 0) || !checkPacket(t, m, tab, m.TotalFrames()-1) {
		return
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 5<<20 {
		t.Errorf("Packets on a 2 h title allocated %d bytes, want < 5 MB", got)
	}
	// A build takes milliseconds; leave the bound loose enough for a loaded
	// CI machine.
	if elapsed > 250*time.Millisecond {
		t.Errorf("Packets on a 2 h title took %v", elapsed)
	}
}

func BenchmarkPacketsOpen2h(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := coldTitle(b, "epic", StreamConfig{Duration: 2 * time.Hour, Seed: int64(i)})
		b.StartTimer()
		m.Packets(testPrefix)
	}
}
