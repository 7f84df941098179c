package mpeg

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

const testPrefix = 0x02

// wantPacket is the reference encoding a per-session sender would produce.
func wantPacket(m *Movie, i int) []byte {
	return wire.AppendMessage([]byte{testPrefix}, &wire.Frame{
		Movie:   m.ID(),
		Index:   uint32(i),
		Class:   m.Frame(i).Class,
		Payload: m.FrameData(i),
	})
}

func checkPackets(t *testing.T, m *Movie, tab *PacketTable, order []int) {
	t.Helper()
	for _, i := range order {
		got, want := tab.Packet(i), wantPacket(m, i)
		if !bytes.Equal(got, want) {
			t.Errorf("packet %d differs from prefix + AppendMessage(Frame)", i)
			return
		}
		if cap(got) != len(got) {
			t.Errorf("packet %d: cap %d > len %d, an append could reach its neighbour", i, cap(got), len(got))
			return
		}
		if tab.WireSize(i) != len(want)-1 {
			t.Errorf("WireSize(%d) = %d, want %d", i, tab.WireSize(i), len(want)-1)
			return
		}
	}
}

// TestPacketsMatchEncoder visits every frame of a lazily built table in a
// seeded random order — so chunks materialize out of order and the last,
// short chunk is hit somewhere in the middle — and compares each packet with
// the per-message encoding.
func TestPacketsMatchEncoder(t *testing.T) {
	// 1001 frames: not a multiple of the chunk size.
	m := Generate("feature", StreamConfig{Duration: 1001 * time.Second / 30, Seed: 7})
	tab := m.Packets(testPrefix)
	if m.Packets(testPrefix) != tab {
		t.Fatal("Packets built a second table for the same prefix")
	}
	if tab.Materialized() != 0 {
		t.Fatalf("Packets materialized %d bytes before any Packet call", tab.Materialized())
	}
	checkPackets(t, m, tab, rand.New(rand.NewSource(1)).Perm(m.TotalFrames()))
	if tab.Materialized() != tab.Bytes() {
		t.Fatalf("every frame visited: materialized %d of %d bytes", tab.Materialized(), tab.Bytes())
	}
}

// TestPacketsConcurrent shares one Movie between 8 goroutines that each walk
// all frames in their own order; run under -race it checks the publish-once
// protocol, and the byte count checks no chunk was built twice.
func TestPacketsConcurrent(t *testing.T) {
	m := Generate("feature", StreamConfig{Duration: 20 * time.Second, Seed: 3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tab := m.Packets(testPrefix)
			checkPackets(t, m, tab, rand.New(rand.NewSource(int64(g))).Perm(m.TotalFrames()))
		}(g)
	}
	wg.Wait()
	tab := m.Packets(testPrefix)
	if tab.Materialized() != tab.Bytes() {
		t.Fatalf("materialized %d bytes of a %d-byte table", tab.Materialized(), tab.Bytes())
	}
}

// TestPacketsFirstTouchCost pins what opening a long title costs: the offsets
// and one chunk, not the movie.
func TestPacketsFirstTouchCost(t *testing.T) {
	m := Generate("epic", StreamConfig{Duration: 2 * time.Hour, Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tab := m.Packets(testPrefix)
	pkt := tab.Packet(0)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	if !bytes.Equal(pkt, wantPacket(m, 0)) {
		t.Fatal("packet 0 differs from the per-message encoding")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3<<20 {
		t.Errorf("Packets + Packet(0) on a 2 h title allocated %d bytes, want < 3 MB", got)
	}
	// The old whole-movie build took seconds; leave the bound loose enough
	// for a loaded CI machine.
	if elapsed > 250*time.Millisecond {
		t.Errorf("Packets + Packet(0) on a 2 h title took %v", elapsed)
	}
	if want := tab.offs[chunkFrames]; tab.Materialized() != want {
		t.Errorf("materialized %d bytes, want one chunk of %d", tab.Materialized(), want)
	}
}

// TestAllocsPacketOneAllocPerChunk: a chunk is one allocation, and a packet
// of a materialized chunk is none.
func TestAllocsPacketOneAllocPerChunk(t *testing.T) {
	m := Generate("feature", StreamConfig{Seed: 1})
	tab := m.Packets(testPrefix)
	next := 0
	if got := testing.AllocsPerRun(20, func() {
		tab.Packet(next)
		next += chunkFrames
	}); got != 1 {
		t.Errorf("first touch of a chunk: %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { tab.Packet(3) }); got != 0 {
		t.Errorf("packet of a materialized chunk: %v allocs, want 0", got)
	}
}

// TestPacketsTouchOnlyTheirChunk: a copy of a movie read back from its file
// form (what a cold-restarted server fetches) resumed at frame k builds k's
// chunk and nothing below it.
func TestPacketsTouchOnlyTheirChunk(t *testing.T) {
	var file bytes.Buffer
	if _, err := Generate("feature", StreamConfig{Seed: 5}).WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrom(&file)
	if err != nil {
		t.Fatal(err)
	}
	const k = 1000
	tab := m.Packets(testPrefix)
	if !bytes.Equal(tab.Packet(k), wantPacket(m, k)) {
		t.Fatalf("packet %d differs from the per-message encoding", k)
	}
	for c := range tab.chunks {
		if built := tab.chunks[c] != nil; built != (c == k>>chunkShift) {
			t.Errorf("chunk %d built = %v after touching only frame %d", c, built, k)
		}
	}
	lo := k >> chunkShift << chunkShift
	if want := tab.offs[lo+chunkFrames] - tab.offs[lo]; tab.Materialized() != want {
		t.Errorf("materialized %d bytes, want the %d of frame %d's chunk", tab.Materialized(), want, k)
	}
}

func BenchmarkPacketsOpen2h(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := Generate("epic", StreamConfig{Duration: 2 * time.Hour, Seed: int64(i)})
		b.StartTimer()
		m.Packets(testPrefix).Packet(0)
	}
}
