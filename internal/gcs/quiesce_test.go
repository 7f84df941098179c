package gcs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestQuiescence: four processes go through what a group's life holds — join,
// multicast, a partition and its heal, a crash, a graceful leave — and then
// all leave and close. Five seconds later nothing is left: no event on the
// clock and no membership in any process. The scratch buffers and the
// codec's envelopes, one per kind, are owned by their process, so this is
// what says they hold nothing once it is gone.
func TestQuiescence(t *testing.T) {
	c := newCluster(t, 3, netsim.LAN())
	all := []ProcessID{"a", "b", "c", "d"}
	c.join("a", "g")
	for _, id := range all[1:] {
		c.join(id, "g", "a")
	}
	c.waitConverged(5*time.Second, all...)
	for i, id := range all {
		if err := c.mem[id].Multicast([]byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(time.Second)

	c.net.Partition([]transport.Addr{"a", "b"}, []transport.Addr{"c", "d"})
	c.waitConverged(5*time.Second, "a", "b")
	c.waitConverged(5*time.Second, "c", "d")
	c.net.Heal()
	c.waitConverged(10*time.Second, all...)

	c.proc["d"].Close()
	c.waitConverged(5*time.Second, "a", "b", "c")
	if err := c.mem["c"].Leave(); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(5*time.Second, "a", "b")
	for _, id := range all {
		_ = c.mem[id].Leave() // ErrClosed for d and for c, whose leave completed
		c.proc[id].Close()
	}

	c.settle(5 * time.Second)
	if n := pendingEvents(c.clk); n != 0 {
		t.Errorf("%d events still on the clock", n)
	}
	for _, id := range all {
		p := c.proc[id]
		p.mu.Lock()
		if n := len(p.members); n != 0 {
			t.Errorf("%s still holds %d memberships", id, n)
		}
		p.mu.Unlock()
	}
}
