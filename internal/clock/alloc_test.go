package clock

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// These tests pin the Virtual clock's free-list guarantees: the arm → fire →
// release cycle that frame pacing and packet delivery run tens of thousands
// of times per simulated second must not allocate once the first event
// record exists.

func TestAllocsAfterFuncFireRelease(t *testing.T) {
	clk := NewVirtual(time.Unix(0, 0))
	fn := func() {}
	tm := clk.AfterFunc(time.Millisecond, fn) // warm: creates the one record
	clk.Advance(time.Millisecond)
	Release(tm)
	allocs := testing.AllocsPerRun(1000, func() {
		tm := clk.AfterFunc(time.Millisecond, fn)
		clk.Advance(time.Millisecond)
		Release(tm)
	})
	if allocs != 0 {
		t.Fatalf("warm AfterFunc/fire/Release cycle = %v allocs/op, want 0", allocs)
	}
}

func TestAllocsAfterFuncStopRelease(t *testing.T) {
	clk := NewVirtual(time.Unix(0, 0))
	fn := func() {}
	Release(clk.AfterFunc(time.Millisecond, fn)) // warm
	allocs := testing.AllocsPerRun(1000, func() {
		tm := clk.AfterFunc(time.Millisecond, fn)
		tm.Stop()
		Release(tm)
	})
	if allocs != 0 {
		t.Fatalf("warm AfterFunc/Stop/Release cycle = %v allocs/op, want 0", allocs)
	}
}

func TestAllocsScheduleFire(t *testing.T) {
	clk := NewVirtual(time.Unix(0, 0))
	fn := func() {}
	clk.Schedule(time.Millisecond, fn) // warm
	clk.Advance(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		clk.Schedule(time.Millisecond, fn)
		clk.Advance(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warm Schedule/fire cycle = %v allocs/op, want 0", allocs)
	}
}

// TestHeapGrowsByDoubling: a capacity run holds tens of thousands of events
// in the heap at its peak. Doubling from 64 entries to n = 8,192 allocates
// 64 + 128 + … + n < 2n entries in all; the bound of 3n leaves room for the
// allocator's rounding. Grown by append, whose steps shrink towards 1.25×,
// the same arming allocated 3.7n.
func TestHeapGrowsByDoubling(t *testing.T) {
	const events = 8192
	entry := int(unsafe.Sizeof(heapEntry{}))
	slabs := (events + eventSlabSize - 1) / eventSlabSize
	slabBytes := slabs * eventSlabSize * int(unsafe.Sizeof(event{}))
	fn := func() {}
	least := ^uint64(0)
	for try := 0; try < 3; try++ { // the runtime allocates now and then too
		c := NewVirtual(time.Unix(0, 0))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < events; i++ {
			c.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	heapBytes := int(least) - slabBytes
	if want := 3 * events * entry; heapBytes > want {
		t.Fatalf("arming %d events allocated %d B of heap array beyond %d B of event slabs, want ≤ %d (3 × %d × %d B)",
			events, heapBytes, slabBytes, want, events, entry)
	}
}
