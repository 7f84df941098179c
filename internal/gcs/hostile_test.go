package gcs

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// hostilePair builds the smallest joined group — a and b converged in "g" —
// plus a bound but silent "stranger" address, and returns a's process and
// membership. It takes a testing.TB so the fuzz target can use it too.
func hostilePair(tb testing.TB) (*clock.Virtual, *netsim.Network, *Process, *Member) {
	tb.Helper()
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	var procs []*Process
	var members []*Member
	for _, id := range []transport.Addr{"a", "b"} {
		ep, err := net.NewEndpoint(id)
		if err != nil {
			tb.Fatal(err)
		}
		p := NewProcess(Config{Clock: clk, Endpoint: ep})
		tb.Cleanup(p.Close)
		var contacts []ProcessID
		if id != "a" {
			contacts = []ProcessID{"a"}
		}
		m, err := p.Join("g", Handlers{}, contacts...)
		if err != nil {
			tb.Fatal(err)
		}
		procs, members = append(procs, p), append(members, m)
	}
	if _, err := net.NewEndpoint("stranger"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 50 && len(members[0].View().Members) != 2; i++ {
		clk.Advance(100 * time.Millisecond)
	}
	if v := members[0].View(); len(v.Members) != 2 {
		tb.Fatalf("a's view = %v, want {a, b}", v.Members)
	}
	return clk, net, procs[0], members[0]
}

// TestHostileNakIsBounded: a NAK is a few dozen bytes naming the current
// view and two attacker-chosen u64s, and it is served under the process
// lock. The walk must be bounded by what the member holds for that sender,
// not by the span the datagram names — and a NAK wider than the holdings
// must still be answered with everything inside it, in sequence order.
func TestHostileNakIsBounded(t *testing.T) {
	clk, net, p, m := hostilePair(t)

	// Give a something to retransmit: b never hears the burst, so none of
	// it becomes stable.
	net.SetLinkDown("a", "b", true)
	const burst = 5
	for i := 0; i < burst; i++ {
		if err := m.Multicast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Millisecond) // a delivers its own burst

	serve := func(from, to uint64) (time.Duration, uint64) {
		before := p.ctr.retransmits.Load()
		nak := encodeNak(&msgNak{group: "g", view: m.View().ID, sender: "a", from: from, to: to})
		start := time.Now()
		p.onPacket("stranger", nak)
		return time.Since(start), p.ctr.retransmits.Load() - before
	}
	// The first span is wide enough to take seconds if walked, so an
	// unbounded walk fails here instead of hanging on the second.
	for _, to := range []uint64{1 << 26, math.MaxUint64} {
		took, resent := serve(0, to)
		if took > 10*time.Millisecond {
			t.Fatalf("NAK [0, %d) held the process lock for %v, want < 10ms", to, took)
		}
		if resent != burst {
			t.Fatalf("NAK [0, %d) was answered with %d retransmissions, want all %d held", to, resent, burst)
		}
	}
	if _, resent := serve(5, 2); resent != 0 {
		t.Fatalf("inverted NAK range was answered with %d retransmissions", resent)
	}
	if _, resent := serve(1, 3); resent != 2 {
		t.Fatalf("NAK [1, 3) was answered with %d retransmissions, want 2", resent)
	}
}

// TestNakRepairsGap is the legitimate counterpart: a receiver that missed
// the head of a burst NAKs the gap when the tail arrives, and delivers the
// whole burst in order.
func TestNakRepairsGap(t *testing.T) {
	c := newCluster(t, 3, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")

	c.net.SetLinkDown("a", "b", true)
	for i := 0; i < 3; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("lost%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(20 * time.Millisecond)
	c.net.SetLinkDown("a", "b", false)
	if err := c.mem["a"].Multicast([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	c.settle(time.Second)

	var got []string
	for _, msg := range c.rec["b"].messages() {
		got = append(got, msg.data)
	}
	if want := []string{"lost0", "lost1", "lost2", "tail"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("b delivered %v, want %v", got, want)
	}
	if c.proc["a"].ctr.retransmits.Load() == 0 {
		t.Fatal("the gap was not repaired by retransmission")
	}
}

// FuzzOnPacket throws arbitrary datagrams at a process that has joined a
// group, once as if sent by the other member and once by a stranger, then
// lets the timers they may have armed run. The property is only that every
// call returns without panicking: nothing a datagram says may wedge the
// process under its lock.
func FuzzOnPacket(f *testing.F) {
	view := ViewID{Seq: 2, Coord: "a"}
	pid := proposalID{Round: 9, Coord: "b"}
	ab := []ProcessID{"a", "b"}
	for _, seed := range [][]byte{
		encodeHeartbeat(),
		appendDirect(nil, []byte("direct")),
		appendAnycast(nil, "g", []byte("anycast")),
		encodeMcast(&msgMcast{group: "g", view: view, sender: "b", seq: 1 << 62, payload: []byte{payloadPlain, 'x'}}),
		encodeNak(&msgNak{group: "g", view: view, sender: "a", from: 0, to: math.MaxUint64}),
		encodeAckVec(&msgAckVec{group: "g", view: view, vec: map[ProcessID]uint64{"a": math.MaxUint64}, contig: map[ProcessID]uint64{"b": 7}}),
		encodePresence(&msgPresence{group: "g", view: ViewID{Seq: 9, Coord: "z"}, members: []ProcessID{"z"}}),
		encodePropose(&msgPropose{group: "g", pid: pid, candidates: ab}),
		encodeSyncInfo(&msgSyncInfo{group: "g", pid: pid, oldView: view, oldMembers: ab, sendSeq: math.MaxUint64, recvNext: map[ProcessID]uint64{"a": math.MaxUint64}}),
		encodeCut(&msgCut{group: "g", pid: pid, targets: map[ProcessID]uint64{"a": math.MaxUint64, "b": math.MaxUint64}}),
		encodeCutDone(&msgCutDone{group: "g", pid: pid}),
		encodeInstall(&msgInstall{group: "g", pid: pid, view: ViewID{Seq: math.MaxUint64, Coord: "b"}, members: ab}),
		encodeLeave(&msgLeave{group: "g"}),
		encodeAgreedReq(&msgAgreedReq{group: "g", seq: math.MaxUint64, payload: []byte("agreed")}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clk, _, p, _ := hostilePair(t)
		p.onPacket("b", data)
		p.onPacket("stranger", data)
		clk.Advance(2 * time.Second)
	})
}
