package gcs

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
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
		// A real registry: the tests read gcs.retransmissions back, and a nil
		// one hands out nil counters that count nothing.
		p := NewProcess(Config{Clock: clk, Endpoint: ep, Obs: obs.NewRegistry(string(id), clk.Now)})
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
		nak := appendNak(nil, &msgNak{group: "g", view: m.View().ID, sender: "a", from: from, to: to})
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

// stateSize is what a member holds for its current view — the rank-indexed
// words, the per-sender lists, and every message in them — and for views it
// has yet to install: one per view, one per message buffered for it.
func stateSize(m *Member) int {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	n := cap(m.ms.buf) + len(m.ms.msgs) + len(m.future)
	for _, l := range m.ms.msgs {
		n += len(l)
	}
	for _, l := range m.future {
		n += len(l)
	}
	return n
}

// strangers returns n IDs that are in nobody's view, sorted, each with a
// value that would matter if it were believed.
func strangers(n int) vec {
	v := vec{make([]ProcessID, n), make([]uint64, n)}
	for i := range v.ids {
		v.ids[i], v.vals[i] = ProcessID(fmt.Sprintf("x%05d", i)), math.MaxUint64
	}
	return v
}

// TestHostileFarFutureSeqCostsOneEntry: a multicast is parked under its
// sender by sequence number, and the number is the sender's to choose. One
// forged at 2⁶⁴−1 must cost one list entry — not a window reaching up to it —
// and everything that later walks the list (NAK service, the retransmit
// tick's gap scan) must walk entries, not the span.
func TestHostileFarFutureSeqCostsOneEntry(t *testing.T) {
	clk, _, p, m := hostilePair(t)
	view := m.View().ID
	before := stateSize(m)
	for _, seq := range []uint64{math.MaxUint64, 1 << 62, math.MaxUint64} {
		p.onPacket("b", appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: seq, payload: []byte{payloadPlain, 'x'}}))
	}
	if grew := stateSize(m) - before; grew != 2 {
		t.Fatalf("two forged sequence numbers (one sent twice) grew the state by %d, want 2", grew)
	}

	start, resent := time.Now(), p.ctr.retransmits.Load()
	p.onPacket("stranger", appendNak(nil, &msgNak{group: "g", view: view, sender: "b", from: 0, to: math.MaxUint64}))
	clk.Advance(time.Second) // ack, retransmit and presence ticks over the forged entries
	if took := time.Since(start); took > time.Second {
		t.Fatalf("serving a NAK and a second of ticks over two forged entries took %v", took)
	}
	if got := p.ctr.retransmits.Load() - resent; got != 1 {
		t.Fatalf("NAK [0, 2⁶⁴−1) was answered with %d retransmissions, want the one entry inside it", got)
	}
}

// TestHostileFutureViewsAreBounded: a multicast tagged with a view later than
// the installed one is held for the install, keyed by a view ID the sender
// chose. 10,000 forged IDs must cost maxFutureViews entries, not 10,000 —
// and a view already being held keeps filling, so the cap refuses newcomers
// and evicts nothing. The most a legitimate run holds is one view: measured
// over chaos seeds 1–400, -fig all, -table all, -classes -runs 24 and the
// gcs, chaos, sim, server and core test suites at PR 22 (18 messages deep at
// most).
func TestHostileFutureViewsAreBounded(t *testing.T) {
	_, _, p, m := hostilePair(t)
	forge := func(view ViewID, seq uint64) {
		p.onPacket("b", appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: seq, payload: []byte{payloadPlain, 'x'}}))
	}
	next := ViewID{Seq: m.View().ID.Seq + 1, Coord: "b"}
	before := stateSize(m)
	forge(next, 0) // the view a peer really is ahead in
	for i := 0; i < 10000; i++ {
		forge(ViewID{Seq: math.MaxUint64 - uint64(i), Coord: "b"}, 0)
	}
	forge(next, 1)
	if grew, most := stateSize(m)-before, 2*maxFutureViews+1; grew > most {
		t.Fatalf("10,000 forged view IDs grew the state by %d, want ≤ %d (%d views, one message each, plus the held view's second)", grew, most, maxFutureViews)
	}
	p.mu.Lock()
	held := len(m.future[next])
	p.mu.Unlock()
	if held != 2 {
		t.Fatalf("the view held before the flood buffered %d of its 2 multicasts", held)
	}
}

// TestHostileStrangerVectorsLeaveNoState: vectors are aligned to the view's
// ranks as they arrive, so an ack vector or a cut naming 65,535 processes
// nobody has heard of changes nothing the member keeps.
func TestHostileStrangerVectorsLeaveNoState(t *testing.T) {
	_, _, p, m := hostilePair(t)
	view := m.View().ID
	before := stateSize(m)
	crowd := strangers(math.MaxUint16)

	p.onPacket("b", appendAckVec(nil, &msgAckVec{group: "g", view: view, delivered: crowd}))
	if got := stateSize(m); got != before {
		t.Fatalf("an ack vector of %d strangers moved the state size %d -> %d", len(crowd.ids), before, got)
	}

	// A cut is only read during a flush: follow a proposal from b first.
	pid := proposalID{Round: 99, Coord: "b"}
	p.onPacket("b", appendPropose(nil, &msgPropose{group: "g", pid: pid, candidates: []ProcessID{"a", "b"}}))
	p.onPacket("b", appendCut(nil, &msgCut{group: "g", pid: pid, targets: crowd}))
	p.mu.Lock()
	haveCut, done := m.haveCut, m.sentCutDone
	p.mu.Unlock()
	if !haveCut || !done {
		t.Fatalf("the cut was not taken (haveCut=%v) or its all-stranger targets were not already met (sentCutDone=%v)", haveCut, done)
	}
	if got := stateSize(m); got != before {
		t.Fatalf("a cut of %d strangers moved the state size %d -> %d", len(crowd.ids), before, got)
	}
}

// TestFlushKeepsNoEnvelope: the codec decodes the next propose or install
// into the envelope the last one left, lists and all, so what a member keeps
// of them — the candidates it follows, the view it installs — must be its own
// copy. A long propose followed by a short one leaves exactly the short
// list, and a stale propose and a stale install decoded into those envelopes
// afterwards change neither.
func TestFlushKeepsNoEnvelope(t *testing.T) {
	_, _, p, m := hostilePair(t)
	followed := func() []ProcessID {
		p.mu.Lock()
		defer p.mu.Unlock()
		return slices.Clone(m.flushCandidates)
	}
	stale, ab, az := proposalID{Round: 1, Coord: "b"}, []ProcessID{"a", "b"}, []ProcessID{"a", "z"}
	long := append(slices.Clone(ab), strangers(64).ids...)
	p.onPacket("b", appendPropose(nil, &msgPropose{group: "g", pid: proposalID{Round: 98, Coord: "b"}, candidates: long}))
	pid := proposalID{Round: 99, Coord: "b"}
	p.onPacket("b", appendPropose(nil, &msgPropose{group: "g", pid: pid, candidates: ab}))
	if got := followed(); !slices.Equal(got, ab) {
		t.Fatalf("after a propose of %d candidates and one of %v, a follows %v", len(long), ab, got)
	}
	p.onPacket("b", appendPropose(nil, &msgPropose{group: "g", pid: stale, candidates: az}))
	if got := followed(); !slices.Equal(got, ab) {
		t.Fatalf("a stale propose of %v turned the candidates a follows into %v", az, got)
	}

	view := ViewID{Seq: 50, Coord: "b"}
	p.onPacket("b", appendInstall(nil, &msgInstall{group: "g", pid: pid, view: view, members: ab}))
	if v := m.View(); v.ID != view || !slices.Equal(v.Members, ab) {
		t.Fatalf("the install of %v as %v left a in %v %v", ab, view, v.ID, v.Members)
	}
	p.onPacket("b", appendInstall(nil, &msgInstall{group: "g", pid: stale, view: ViewID{Seq: 51, Coord: "b"}, members: az}))
	if v := m.View(); v.ID != view || !slices.Equal(v.Members, ab) {
		t.Fatalf("a stale install of %v turned a's view into %v %v", az, v.ID, v.Members)
	}
}

// TestSyncInfoFromAnotherOldViewGetsItsOwnCut pins the per-old-view rule of
// the flush: sequence numbers mean nothing across views, so a candidate that
// reports a different old view — a joiner, a merged-in partition, a member
// stranded one install behind — is sent targets computed from the reports of
// its own old view only, and contributes nothing to anyone else's.
func TestSyncInfoFromAnotherOldViewGetsItsOwnCut(t *testing.T) {
	clk, _, p, m := hostilePair(t)
	if err := m.Multicast([]byte("in the old view")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(300 * time.Millisecond)
	shared := m.View().ID
	alone := ViewID{Seq: 1, Coord: "stranger"}

	// The stranger announces itself; a, the coordinator, proposes {a, b,
	// stranger} and collects a's and b's reports on its own.
	p.onPacket("stranger", appendPresence(nil, &msgPresence{group: "g", view: alone, members: []ProcessID{"stranger"}}))
	reported := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		if m.prop == nil {
			return 0
		}
		n := 0
		for _, rec := range m.prop.syncs {
			if rec.reported {
				n++
			}
		}
		return n
	}
	for i := 0; i < 200 && reported() < 2; i++ {
		clk.Advance(time.Millisecond)
	}
	if got := reported(); got != 2 {
		t.Fatalf("%d of a's and b's reports are in, want 2", got)
	}
	p.mu.Lock()
	pid := m.prop.pid
	p.mu.Unlock()
	p.onPacket("stranger", appendSyncInfo(nil, &msgSyncInfo{
		group: "g", pid: pid, oldView: alone, oldMembers: []ProcessID{"stranger"}, sendSeq: 4,
		// It claims to have delivered 9 from a — in its own view, where
		// there is no a: that must not raise a's target in the shared one.
		recvNext: vec{[]ProcessID{"a", "stranger"}, []uint64{9, 3}},
	}))

	p.mu.Lock()
	defer p.mu.Unlock()
	if m.prop == nil || m.prop.phase != phaseCut || len(m.prop.cuts) != 2 {
		t.Fatalf("after the last report the proposal is %+v, want the cut phase with two old views", m.prop)
	}
	if cut, _ := m.prop.cutFor(alone); !slices.Equal(cut.ids, []ProcessID{"stranger"}) || !slices.Equal(cut.vals, []uint64{4}) {
		t.Errorf("the stranger's own cut is %v=%v, want stranger=4", cut.ids, cut.vals)
	}
	if cut, _ := m.prop.cutFor(shared); !slices.Equal(cut.ids, []ProcessID{"a"}) || !slices.Equal(cut.vals, []uint64{1}) {
		t.Errorf("the cut of a and b's view is %v=%v, want a=1 (b sent nothing, so it is not named)", cut.ids, cut.vals)
	}
}

// TestReportsKeepToTheirRanks: a coordinator copies each candidate's report
// into storage carved by rank from one backing. A report longer than its
// piece must grow its own record and leave every other rank's alone. Here a
// proposes {a, b, stranger, t} from its view {a, b}, so a and b are carved
// room for two old members each, the stranger and t for one. The stranger
// reports one, t three, and then the stranger again with five; b, cut off,
// reports last. Every record must read back what its rank sent, and the cut
// must be the one computed over records that share no storage.
func TestReportsKeepToTheirRanks(t *testing.T) {
	clk, net, p, m := hostilePair(t)
	if _, err := net.NewEndpoint("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.Multicast([]byte("in the old view")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(300 * time.Millisecond)
	shared := m.View().ID
	net.SetLinkDown("a", "b", true) // b's own report never arrives
	for _, id := range []ProcessID{"stranger", "t"} {
		p.onPacket(id, appendPresence(nil, &msgPresence{group: "g", view: ViewID{Seq: 1, Coord: id}, members: []ProcessID{id}}))
	}
	var pid proposalID
	var own syncRecord // a's report, as a separately allocated record
	for i := 0; i < 200 && pid.Round == 0; i++ {
		clk.Advance(time.Millisecond)
		p.mu.Lock()
		if pr := m.prop; pr != nil && pr.syncs[0].reported {
			if want := []ProcessID{"a", "b", "stranger", "t"}; !slices.Equal(pr.candidates, want) {
				t.Fatalf("a proposes %v, want %v", pr.candidates, want)
			}
			pid, own = pr.pid, cloneRecord(pr.syncs[0])
		}
		p.mu.Unlock()
	}
	if pid.Round == 0 {
		t.Fatal("a never proposed the strangers in")
	}
	if !slices.Equal(own.oldMembers, []ProcessID{"a", "b"}) {
		t.Fatalf("a reported old members %v, want [a b]", own.oldMembers)
	}

	report := func(from ProcessID, oldView ViewID, sendSeq uint64, members ...ProcessID) syncRecord {
		vals := make([]uint64, len(members))
		for i := range vals {
			vals[i] = sendSeq + uint64(i)
		}
		msg := msgSyncInfo{group: "g", pid: pid, oldView: oldView, oldMembers: members, sendSeq: sendSeq, recvNext: vec{members, vals}}
		p.onPacket(from, appendSyncInfo(nil, &msg))
		return syncRecord{reported: true, oldView: oldView, oldMembers: members, sendSeq: sendSeq, recvNext: msg.recvNext}
	}
	aloneS, aloneT := ViewID{Seq: 1, Coord: "stranger"}, ViewID{Seq: 1, Coord: "t"}
	report("stranger", aloneS, 2, "stranger")
	fromT := report("t", aloneT, 5, "t", "x1", "x2")
	fromS := report("stranger", aloneS, 3, "stranger", "y1", "y2", "y3", "y4")
	sent := []syncRecord{own, {}, fromS, fromT}
	check := func(when string, ranks ...int) {
		t.Helper()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, r := range ranks {
			got, want := m.prop.syncs[r], sent[r]
			if !got.reported || got.oldView != want.oldView || got.sendSeq != want.sendSeq ||
				!slices.Equal(got.oldMembers, want.oldMembers) ||
				!slices.Equal(got.recvNext.ids, want.recvNext.ids) || !slices.Equal(got.recvNext.vals, want.recvNext.vals) {
				t.Fatalf("%s, rank %d's record is %+v, want %+v", when, r, got, want)
			}
		}
	}
	check("before b reports", 0, 2, 3)

	sent[1] = report("b", shared, 0, "a", "b")
	check("after b reports", 0, 1, 2, 3)
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := m.prop
	if pr.pid != pid || pr.phase != phaseCut {
		t.Fatalf("after b's report the proposal is %v in phase %d, want %v in the cut phase", pr.pid, pr.phase, pid)
	}
	ref := &proposal{candidates: pr.candidates}
	for _, rec := range sent {
		ref.syncs = append(ref.syncs, cloneRecord(rec))
	}
	for _, rec := range ref.syncs {
		if _, done := ref.cutFor(rec.oldView); !done {
			ref.addCut(rec.oldView, rec.oldMembers)
		}
	}
	if len(pr.cuts) != len(ref.cuts) {
		t.Fatalf("%d cuts, want %d", len(pr.cuts), len(ref.cuts))
	}
	for i, want := range ref.cuts {
		got := pr.cuts[i]
		if got.view != want.view || !slices.Equal(got.targets.ids, want.targets.ids) || !slices.Equal(got.targets.vals, want.targets.vals) {
			t.Errorf("cut %d is %v %v=%v, want %v %v=%v", i, got.view, got.targets.ids, got.targets.vals, want.view, want.targets.ids, want.targets.vals)
		}
	}
}

// cloneRecord copies rec into storage of its own.
func cloneRecord(rec syncRecord) syncRecord {
	rec.oldMembers = slices.Clone(rec.oldMembers)
	rec.recvNext = vec{slices.Clone(rec.recvNext.ids), slices.Clone(rec.recvNext.vals)}
	return rec
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

// TestAckVecRepairsTailLoss: when the newest multicasts are the ones lost,
// nothing after them reveals a gap. The sender's ack gossip does: its own
// entry is its send counter, and the receiver NAKs up to it.
func TestAckVecRepairsTailLoss(t *testing.T) {
	c := newCluster(t, 3, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")
	view := c.rec["b"].lastView().ID

	c.net.SetLinkDown("a", "b", true)
	for i := 0; i < 2; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("lost%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(20 * time.Millisecond)
	c.net.SetLinkDown("a", "b", false)
	naks := c.proc["b"].ctr.naksSent.Load()
	c.settle(time.Second)

	var got []string
	for _, msg := range c.rec["b"].messages() {
		got = append(got, msg.data)
	}
	if want := []string{"lost0", "lost1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("b delivered %v, want %v", got, want)
	}
	if c.proc["b"].ctr.naksSent.Load() == naks {
		t.Fatal("the tail was repaired without a NAK from b")
	}
	if v := c.rec["b"].lastView().ID; v != view {
		t.Fatalf("b moved from view %v to %v: a view change, not the ack gossip, repaired the tail", view, v)
	}
}

// retiredKind14 frames what the agreed-order request, kind 14, put on the
// wire before agreed delivery was deleted: the group, the sender's agreed
// sequence number and the payload.
func retiredKind14(group string, seq uint64, payload []byte) []byte {
	return wire.AppendBytes(wire.AppendU64(wire.AppendString([]byte{14}, group), seq), payload)
}

// TestHostileRetiredKindAndTagAreDropped: agreed delivery is gone, and so
// are its kind (14) and its payload tag (1). A datagram of that kind, in the
// bytes the old encoder wrote, is an unknown kind: it decodes to an error and
// leaves no state, from a member or from a stranger. A multicast whose payload
// starts with the old tag takes its place in the sender's FIFO stream, but
// reaches no handler; the plain multicast after it does.
func TestHostileRetiredKindAndTagAreDropped(t *testing.T) {
	clk, _, p, m := hostilePair(t)
	var got []string
	p.mu.Lock()
	m.handlers.OnMessage = func(_ string, _ ProcessID, payload []byte) { got = append(got, string(payload)) }
	p.mu.Unlock()

	req := retiredKind14("g", 0, []byte("agreed"))
	var c codec
	if msg, err := c.decodeLocked(req); err == nil {
		t.Fatalf("kind 14 decodes as %T, want an unknown kind", msg)
	}
	before := stateSize(m)
	p.onPacket("b", req)
	p.onPacket("stranger", req)
	clk.Advance(time.Second)
	if after := stateSize(m); after != before {
		t.Fatalf("two kind-14 datagrams and a second of ticks moved the state size %d -> %d", before, after)
	}

	view := m.View().ID
	p.onPacket("b", appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: 0, payload: []byte{1, 'x'}}))
	p.onPacket("b", appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: 1, payload: []byte{payloadPlain, 'y'}}))
	if fmt.Sprint(got) != "[y]" {
		t.Fatalf("a handler got %q from a payload tagged 1 and a plain one, want only the plain one's", got)
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
		appendDirect(nil, &msgDirect{payload: []byte("direct")}),
		appendAnycast(nil, &msgAnycast{group: "g", payload: []byte("anycast")}),
		appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: 1 << 62, payload: []byte{payloadPlain, 'x'}}),
		appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: math.MaxUint64, payload: []byte{payloadPlain, 'x'}}),
		appendMcast(nil, &msgMcast{group: "g", view: ViewID{Seq: math.MaxUint64, Coord: "z"}, sender: "b", seq: 0, payload: []byte{payloadPlain, 'x'}}),
		appendNak(nil, &msgNak{group: "g", view: view, sender: "a", from: 0, to: math.MaxUint64}),
		appendAckVec(nil, &msgAckVec{group: "g", view: view, delivered: vec{[]ProcessID{"a", "b"}, []uint64{math.MaxUint64, 7}}}),
		appendAckVec(nil, &msgAckVec{group: "g", view: view, delivered: vec{
			append(strangers(64).ids, "b", "a", "b"), append(strangers(64).vals, 3, 2, 1)}}),
		appendPresence(nil, &msgPresence{group: "g", view: ViewID{Seq: 9, Coord: "z"}, members: []ProcessID{"z"}}),
		appendPropose(nil, &msgPropose{group: "g", pid: pid, candidates: ab}),
		appendSyncInfo(nil, &msgSyncInfo{group: "g", pid: pid, oldView: view, oldMembers: ab, sendSeq: math.MaxUint64, recvNext: vec{[]ProcessID{"a"}, []uint64{math.MaxUint64}}}),
		appendCut(nil, &msgCut{group: "g", pid: pid, targets: vec{ab, []uint64{math.MaxUint64, math.MaxUint64}}}),
		appendCut(nil, &msgCut{group: "g", pid: pid, targets: strangers(64)}),
		appendSyncInfo(nil, &msgSyncInfo{group: "g", pid: pid, oldView: ViewID{Seq: 1, Coord: "z"}, oldMembers: []ProcessID{"z", "b", "z"}, recvNext: strangers(64)}),
		appendCutDone(nil, &msgCutDone{group: "g", pid: pid}),
		appendInstall(nil, &msgInstall{group: "g", pid: pid, view: ViewID{Seq: math.MaxUint64, Coord: "b"}, members: ab}),
		// The pooled kinds, shaped to reach past the envelope a previous
		// decode left: a presence listing a crowd and a member twice, a cut
		// whose count claims more entries than the datagram holds, and a NAK
		// for an empty range of a stranger's stream.
		appendPresence(nil, &msgPresence{group: "g", view: ViewID{Seq: 9, Coord: "z"}, members: append(strangers(64).ids, "b", "b")}),
		wire.AppendU16(appendPID(wire.AppendString([]byte{kindCut}, "g"), pid), math.MaxUint16),
		appendNak(nil, &msgNak{group: "g", view: view, sender: "z", from: 9, to: 2}),
		// The flush's kinds are pooled too, and each input is decoded twice,
		// the second time into the envelope the first left: a propose naming
		// a crowd beside the two members (the two-member one above is its
		// short counterpart), and an install whose count claims more IDs
		// than the datagram holds.
		appendPropose(nil, &msgPropose{group: "g", pid: pid, candidates: append(slices.Clone(ab), strangers(64).ids...)}),
		wire.AppendU16(appendViewID(appendPID(wire.AppendString([]byte{kindInstall}, "g"), pid), ViewID{Seq: 3, Coord: "b"}), math.MaxUint16),
		appendLeave(nil, &msgLeave{group: "g"}),
		// What the retired kind 14 and the retired payload tag 1 looked like.
		retiredKind14("g", math.MaxUint64, []byte("agreed")),
		appendMcast(nil, &msgMcast{group: "g", view: view, sender: "b", seq: 0, payload: []byte{1, 'x'}}),
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
