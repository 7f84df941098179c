package gcs

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// TestSharedTimersProtocolEquivalence runs the join/multicast/crash cycle
// end to end on the coalesced tick: convergence, FIFO delivery and
// failure-driven view changes are all driven by the one ticker.
func TestSharedTimersProtocolEquivalence(t *testing.T) {
	c := newCluster(t, 7, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(5*time.Second, "a", "b", "c")

	if err := c.mem["a"].Multicast([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := c.mem["b"].Multicast([]byte("m2")); err != nil {
		t.Fatal(err)
	}
	c.settle(time.Second)
	for _, id := range []ProcessID{"a", "b", "c"} {
		msgs := c.rec[id].messages()
		if len(msgs) != 2 {
			t.Fatalf("%s delivered %d messages, want 2: %v", id, len(msgs), msgs)
		}
	}

	// Crash one member: the survivors' failure detector (a duty of the same
	// tick) must drive a view change excluding it.
	c.proc["c"].Close()
	c.waitConverged(5*time.Second, "a", "b")
}

// TestSharedTimersTimerCount pins the resource claim: a process serving
// many groups holds ONE standing timer, not one per membership per duty.
// Measured on idle singleton memberships so pending network events cannot
// pollute the clock's event count.
func TestSharedTimersTimerCount(t *testing.T) {
	const groups = 10
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	ep, err := net.NewEndpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	defer p.Close()
	for i := 0; i < groups; i++ {
		if _, err := p.Join(string(rune('a'+i)), Handlers{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second) // steady state; singletons emit no packets
	if got := pendingEvents(clk); got != 1 {
		t.Fatalf("standing timers with %d groups = %d, want 1", groups, got)
	}
}

// TestSharedTickAllocFree pins that the coalesced tick allocates nothing in
// steady state: the member snapshot, gossip encode buffers and heartbeat
// path all run from warm scratch.
func TestSharedTickAllocFree(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	ep, err := net.NewEndpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	defer p.Close()
	for _, g := range []string{"g1", "g2", "g3"} {
		if _, err := p.Join(g, Handlers{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second) // warm the scratch buffers
	allocs := testing.AllocsPerRun(5, func() { clk.Advance(time.Second) })
	if allocs != 0 {
		t.Fatalf("shared tick allocs per simulated second = %v, want 0", allocs)
	}
}
