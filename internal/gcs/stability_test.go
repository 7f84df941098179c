package gcs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestStabilityGarbageCollection: retained (delivered-but-unstable)
// messages must be reclaimed once the acknowledgement vectors show every
// member delivered them — otherwise a long-lived group leaks every message
// ever sent.
func TestStabilityGarbageCollection(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	for i := 0; i < 100; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Several ack rounds (200ms interval) must establish stability.
	c.settle(2 * time.Second)

	for _, id := range []ProcessID{"a", "b", "c"} {
		m := c.mem[id]
		m.p.mu.Lock()
		retained := 0
		for s, l := range m.ms.msgs {
			delivered, _ := find(l, m.ms.recvNext[s])
			retained += delivered
		}
		m.p.mu.Unlock()
		if retained > 10 {
			t.Errorf("%s retains %d messages after stability; GC broken", id, retained)
		}
	}
}

// TestSingletonReleasesItsMulticasts: a member alone in its view hears no
// ack vector, so only its own ack beat can make its multicasts stable — a
// server alone in its movie group multicasts a state sync every 500 ms for
// as long as it runs. Each beat releases what the member had delivered by
// the beat before, so after a thousand multicasts it holds one beat's worth.
func TestSingletonReleasesItsMulticasts(t *testing.T) {
	const every = 100 * time.Millisecond
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	m := c.mem["a"]
	for i := 0; i < 1000; i++ {
		if err := m.Multicast([]byte(fmt.Sprintf("sync %d", i))); err != nil {
			t.Fatal(err)
		}
		c.settle(every)
	}
	c.settle(ackInterval)
	if got := len(c.rec["a"].messages()); got != 1000 {
		t.Fatalf("a delivered %d of its 1000 multicasts", got)
	}
	m.p.mu.Lock()
	held := len(m.ms.msgs[0])
	m.p.mu.Unlock()
	if most := int(ackInterval / every); held > most {
		t.Fatalf("alone in its view, a holds %d of the 1000 multicasts it sent %v apart, want at most %d (one ack beat's worth)", held, every, most)
	}
}

// TestRetainedServeFlushAfterSenderCrash: stability must NOT reclaim
// messages too early — a message delivered at only one member must survive
// there until everyone has it, because flush recovery needs it when the
// sender dies.
func TestRetainedServeFlushAfterSenderCrash(t *testing.T) {
	prof := netsim.LAN()
	c := newCluster(t, 2, prof)
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	// Cut a→c so only b receives a's burst directly; then kill a before
	// any repair. b's retained copies are now the sole source for c.
	c.net.SetLinkDown("a", "c", true)
	for i := 0; i < 10; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(20 * time.Millisecond) // delivery at b, no ack round yet
	c.net.Crash("a")
	c.waitConverged(5*time.Second, "b", "c")
	c.settle(time.Second)

	// Virtual synchrony: b delivered the burst before the new view, so c
	// must have too — out of b's retained copies.
	var gotC int
	for _, m := range c.rec["c"].messages() {
		if m.from == "a" {
			gotC++
		}
	}
	if gotC != 10 {
		t.Fatalf("c delivered %d/10 of the dead sender's messages; flush recovery failed", gotC)
	}
}

// TestMultiMemberPartitionMerge splits a 4-member group into two 2-member
// sides, verifies both sides keep working independently, then heals and
// requires one merged view of all four.
func TestMultiMemberPartitionMerge(t *testing.T) {
	c := newCluster(t, 3, netsim.LAN())
	ids := []ProcessID{"a", "b", "c", "d"}
	c.join("a", "g")
	for _, id := range ids[1:] {
		c.join(id, "g", "a", "b", "c", "d")
	}
	c.waitConverged(5*time.Second, ids...)

	c.net.Partition([]transport.Addr{"a", "b"}, []transport.Addr{"c", "d"})
	c.waitConverged(5*time.Second, "a", "b")
	c.waitConverged(5*time.Second, "c", "d")

	// Both sides keep multicasting within their views.
	if err := c.mem["a"].Multicast([]byte("left")); err != nil {
		t.Fatal(err)
	}
	if err := c.mem["c"].Multicast([]byte("right")); err != nil {
		t.Fatal(err)
	}
	c.settle(time.Second)
	for _, id := range []ProcessID{"a", "b"} {
		if msgs := c.rec[id].messages(); len(msgs) == 0 || msgs[len(msgs)-1].data != "left" {
			t.Fatalf("%s did not deliver the left-side message", id)
		}
	}
	for _, id := range []ProcessID{"c", "d"} {
		if msgs := c.rec[id].messages(); len(msgs) == 0 || msgs[len(msgs)-1].data != "right" {
			t.Fatalf("%s did not deliver the right-side message", id)
		}
	}

	c.net.Heal()
	c.waitConverged(10*time.Second, ids...)

	// The merged view works end to end.
	if err := c.mem["d"].Multicast([]byte("merged")); err != nil {
		t.Fatal(err)
	}
	c.settle(time.Second)
	for _, id := range ids {
		msgs := c.rec[id].messages()
		if len(msgs) == 0 || msgs[len(msgs)-1].data != "merged" {
			t.Fatalf("%s did not deliver post-merge traffic", id)
		}
	}
}

// TestCoordinatorGracefulLeave: the coordinator announcing a leave hands
// the group to the next member quickly and cleanly.
func TestCoordinatorGracefulLeave(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	if err := c.mem["a"].Leave(); err != nil {
		t.Fatal(err)
	}
	took := c.waitConverged(3*time.Second, "b", "c")
	if took >= 500*time.Millisecond {
		t.Fatalf("coordinator leave took %v, want faster than failure detection", took)
	}
	if got := c.rec["b"].lastView().coordinator(); got != "b" {
		t.Fatalf("new coordinator = %s, want b", got)
	}
	// The departed coordinator must not linger in anyone's view.
	if c.rec["b"].lastView().Includes("a") || c.rec["c"].lastView().Includes("a") {
		t.Fatal("left member still in a view")
	}
}

// TestRejoinAfterLeave: a member that left can join the same group again
// under the same process.
func TestRejoinAfterLeave(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")

	if err := c.mem["b"].Leave(); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(3*time.Second, "a")
	c.settle(3 * time.Second) // leave grace must fully deactivate

	rec := &recorder{}
	m, err := c.proc["b"].Join("g", rec.handlers(), "a")
	if err != nil {
		t.Fatalf("rejoin failed: %v", err)
	}
	c.rec["b"] = rec
	c.mem["b"] = m
	c.waitConverged(5*time.Second, "a", "b")
}
