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

// counter is a Runner that is not a Func: the shape of an owner that hands
// itself to the clock.
type counter struct{ n int }

func (c *counter) Run() { c.n++ }

// TestAllocsRunnerEntryPoints pins the Runner paths on a Virtual clock whose
// slab already holds a free record: a fresh Periodic's Start, a Schedule and
// a Rearm each arm the owner itself, binding no method value.
func TestAllocsRunnerEntryPoints(t *testing.T) {
	clk := NewVirtual(time.Unix(0, 0))
	r := new(counter)
	clk.Schedule(time.Millisecond, func() {}) // warm: creates the slab
	clk.Advance(time.Millisecond)
	beats := make([]Periodic, 1001) // AllocsPerRun runs once more to warm up
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		p := &beats[i]
		i++
		p.Start(clk, time.Millisecond, time.Millisecond, r)
		clk.Advance(time.Millisecond) // one tick, re-armed in place
		p.Stop()
		Release(p.timer) // the next fresh beat takes this record
	}); allocs != 0 {
		t.Errorf("a fresh Periodic's Start = %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		Schedule(clk, time.Millisecond, r)
		clk.Advance(time.Millisecond)
	}); allocs != 0 {
		t.Errorf("Schedule of a Runner = %v allocs/op, want 0", allocs)
	}
	tm := Rearm(clk, nil, time.Millisecond, r)
	clk.Advance(time.Millisecond)
	if allocs := testing.AllocsPerRun(1000, func() {
		tm = Rearm(clk, tm, time.Millisecond, r)
		clk.Advance(time.Millisecond)
	}); allocs != 0 {
		t.Errorf("Rearm of a Runner = %v allocs/op, want 0", allocs)
	}
	if r.n == 0 {
		t.Fatal("the Runner never ran")
	}
}

// TestEventRecordSize: with the Runner's two words, an event record must stay
// at 40 bytes, so eventSlabSize records and the link still fill the 10 KB
// size class and a run's clock bytes do not grow.
func TestEventRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 40 {
		t.Fatalf("an event record is %d B, want ≤ 40", size)
	}
	if slab := unsafe.Sizeof(eventSlab{}); unsafe.Sizeof(uintptr(0)) == 8 && slab > 10240 {
		t.Fatalf("an event slab is %d B, want ≤ 10240", slab)
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
