package gcs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestFreshGroupFirstViewAllocs pins what a fresh group's first view changes
// cost, which a chaos sweep pays in full because every seed builds new
// clusters. Three new processes, each listing the other two as contacts, join
// one group and converge into a three-member view; then c crashes, and a and
// b propose again and install a two-member view. The count runs from the
// first Join to that install.
//
// It measures 158-162 mallocs, and the ceiling is 170. The same run measured
// 190 when the multicast state was made for the singleton view at Join and
// again at the first real install, each report's three lists grew per rank,
// and the detector's watch list and merge buffers grew by doubling.
func TestFreshGroupFirstViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops are not the code's")
	}
	const ceiling = 170
	c := newCluster(t, 1, netsim.LAN())
	ids := []ProcessID{"a", "b", "c"}
	for _, id := range ids {
		c.addProcess(id)
	}
	var mu sync.Mutex
	var sizes [3]int // members of each process's latest view
	settle := func(what string, want ...int) {
		t.Helper()
		done := func() bool {
			mu.Lock()
			defer mu.Unlock()
			for i, n := range want {
				if sizes[i] != n {
					return false
				}
			}
			return true
		}
		for i := 0; i < 300 && !done(); i++ {
			c.clk.Advance(10 * time.Millisecond)
		}
		if !done() {
			t.Fatalf("no %s within 3 s: view sizes %v", what, sizes)
		}
	}

	// A collection empties the callback pool, and the count would depend on
	// when one ran.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		contacts := make([]ProcessID, 0, len(ids)-1)
		for _, other := range ids {
			if other != id {
				contacts = append(contacts, other)
			}
		}
		onView := func(v View) {
			mu.Lock()
			sizes[i] = len(v.Members)
			mu.Unlock()
		}
		if _, err := c.proc[id].Join("g", Handlers{OnView: onView}, contacts...); err != nil {
			t.Fatal(err)
		}
	}
	settle("three-member view", 3, 3, 3)
	c.net.Crash("c")
	settle("two-member view after c's crash", 2, 2)
	runtime.ReadMemStats(&after)

	got := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs from the first Join to the install after the crash", got)
	if got > ceiling {
		t.Errorf("%d mallocs, want <= %d", got, ceiling)
	}
}
