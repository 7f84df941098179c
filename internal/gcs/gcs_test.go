package gcs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transport"
)

var gcsEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// recorder captures a member's view and message history in delivery order.
type recorder struct {
	mu    sync.Mutex
	views []View
	msgs  []recMsg
}

type recMsg struct {
	view ViewID // view installed at delivery time
	from ProcessID
	data string
}

func (r *recorder) handlers() Handlers {
	return Handlers{
		OnView: func(v View) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.views = append(r.views, v)
		},
		OnMessage: func(_ string, from ProcessID, payload []byte) {
			r.mu.Lock()
			defer r.mu.Unlock()
			var cur ViewID
			if len(r.views) > 0 {
				cur = r.views[len(r.views)-1].ID
			}
			r.msgs = append(r.msgs, recMsg{view: cur, from: from, data: string(payload)})
		},
	}
}

func (r *recorder) lastView() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.views) == 0 {
		return View{}
	}
	return r.views[len(r.views)-1]
}

func (r *recorder) messages() []recMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recMsg(nil), r.msgs...)
}

// cluster is the GCS test rig: processes on a simulated network driven by a
// virtual clock.
type cluster struct {
	t    *testing.T
	clk  *clock.Virtual
	net  *netsim.Network
	proc map[ProcessID]*Process
	rec  map[ProcessID]*recorder
	mem  map[ProcessID]*Member
}

func newCluster(t *testing.T, seed int64, prof netsim.Profile) *cluster {
	t.Helper()
	clk := clock.NewVirtual(gcsEpoch)
	return &cluster{
		t:    t,
		clk:  clk,
		net:  netsim.New(clk, seed, prof),
		proc: make(map[ProcessID]*Process),
		rec:  make(map[ProcessID]*recorder),
		mem:  make(map[ProcessID]*Member),
	}
}

func (c *cluster) addProcess(id ProcessID) *Process {
	c.t.Helper()
	ep, err := c.net.NewEndpoint(id)
	if err != nil {
		c.t.Fatal(err)
	}
	// Observed, so tests can read p.ctr back: a nil registry counts nothing.
	p := NewProcess(Config{Clock: c.clk, Endpoint: ep, Obs: obs.NewRegistry(string(id), c.clk.Now)})
	c.proc[id] = p
	return p
}

func (c *cluster) join(id ProcessID, group string, contacts ...ProcessID) {
	c.t.Helper()
	p := c.proc[id]
	if p == nil {
		p = c.addProcess(id)
	}
	rec := &recorder{}
	m, err := p.Join(group, rec.handlers(), contacts...)
	if err != nil {
		c.t.Fatal(err)
	}
	c.rec[id] = rec
	c.mem[id] = m
}

// settle advances simulated time by d.
func (c *cluster) settle(d time.Duration) { c.clk.Advance(d) }

// converged reports whether the given processes share one view containing
// exactly them.
func (c *cluster) converged(ids ...ProcessID) bool {
	want := sortedIDs(ids)
	var ref View
	for i, id := range ids {
		v := c.rec[id].lastView()
		if len(v.Members) != len(want) {
			return false
		}
		for j := range want {
			if v.Members[j] != want[j] {
				return false
			}
		}
		if i == 0 {
			ref = v
		} else if v.ID != ref.ID {
			return false
		}
	}
	return true
}

// waitConverged advances time until the processes converge or the deadline
// passes.
func (c *cluster) waitConverged(max time.Duration, ids ...ProcessID) time.Duration {
	c.t.Helper()
	start := c.clk.Now()
	for elapsed := time.Duration(0); elapsed < max; elapsed += 50 * time.Millisecond {
		if c.converged(ids...) {
			return c.clk.Now().Sub(start)
		}
		c.settle(50 * time.Millisecond)
	}
	if c.converged(ids...) {
		return c.clk.Now().Sub(start)
	}
	for _, id := range ids {
		c.t.Logf("%s: view=%v", id, c.rec[id].lastView())
	}
	c.t.Fatalf("processes %v did not converge within %v", ids, max)
	return 0
}

func TestSingletonJoin(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	v := c.rec["a"].lastView()
	if len(v.Members) != 1 || v.Members[0] != "a" {
		t.Fatalf("initial view = %v, want singleton {a}", v)
	}
	if v.ID.Coord != "a" || v.ID.Seq != 1 {
		t.Fatalf("initial view ID = %v", v.ID)
	}
}

func TestTwoProcessJoin(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")
	v := c.rec["a"].lastView()
	if v.coordinator() != "a" {
		t.Fatalf("coordinator = %s, want a", v.coordinator())
	}
}

func TestMulticastFIFO(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")

	for i := 0; i < 20; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(time.Second)

	for _, id := range []ProcessID{"a", "b"} {
		var got []string
		for _, m := range c.rec[id].messages() {
			if m.from == "a" {
				got = append(got, m.data)
			}
		}
		if len(got) != 20 {
			t.Fatalf("%s delivered %d messages, want 20", id, len(got))
		}
		for i, d := range got {
			if want := fmt.Sprintf("m%02d", i); d != want {
				t.Fatalf("%s FIFO violation at %d: %q != %q", id, i, d, want)
			}
		}
	}
}

func TestMulticastSelfDelivery(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	if err := c.mem["a"].Multicast([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	c.settle(100 * time.Millisecond)
	msgs := c.rec["a"].messages()
	if len(msgs) != 1 || msgs[0].data != "solo" || msgs[0].from != "a" {
		t.Fatalf("self delivery = %v", msgs)
	}
}

func TestThreeProcessesCrashOne(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	c.net.Crash("c")
	took := c.waitConverged(5*time.Second, "a", "b")
	t.Logf("takeover after crash took %v", took)
	if took > 2*time.Second {
		t.Fatalf("view change after crash took %v, want < 2s", took)
	}
}

func TestCoordinatorCrash(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	c.net.Crash("a") // "a" is the coordinator (lowest ID)
	c.waitConverged(5*time.Second, "b", "c")
	v := c.rec["b"].lastView()
	if v.coordinator() != "b" {
		t.Fatalf("new coordinator = %s, want b", v.coordinator())
	}
}

func TestSequentialCrashesDownToOne(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	ids := []ProcessID{"a", "b", "c", "d"}
	c.join("a", "g")
	for _, id := range ids[1:] {
		c.join(id, "g", "a")
	}
	c.waitConverged(5*time.Second, ids...)

	c.net.Crash("a")
	c.waitConverged(5*time.Second, "b", "c", "d")
	c.net.Crash("b")
	c.waitConverged(5*time.Second, "c", "d")
	c.net.Crash("c")
	c.waitConverged(5*time.Second, "d")
}

func TestMulticastUnderLoss(t *testing.T) {
	prof := netsim.LAN()
	prof.Loss = 0.10 // harsh: 10% loss on the control plane
	c := newCluster(t, 7, prof)
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(10*time.Second, "a", "b")

	for i := 0; i < 50; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(5 * time.Second) // NAK repair needs some rounds

	var got []string
	for _, m := range c.rec["b"].messages() {
		if m.from == "a" {
			got = append(got, m.data)
		}
	}
	if len(got) != 50 {
		t.Fatalf("b delivered %d/50 under 10%% loss; reliable multicast failed", len(got))
	}
	for i, d := range got {
		if want := fmt.Sprintf("m%02d", i); d != want {
			t.Fatalf("FIFO violation at %d: %q", i, d)
		}
	}
}

// TestMulticastUnderLossThreeSenders: three senders interleave under loss,
// and NAK repair still delivers every message everywhere.
func TestMulticastUnderLossThreeSenders(t *testing.T) {
	prof := netsim.LAN()
	prof.Loss = 0.10
	c := newCluster(t, 5, prof)
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(10*time.Second, "a", "b", "c")

	for i := 0; i < 20; i++ {
		sender := []ProcessID{"a", "b", "c"}[i%3]
		if err := c.mem[sender].Multicast([]byte(fmt.Sprintf("%s-%02d", sender, i))); err != nil {
			t.Fatal(err)
		}
		c.settle(15 * time.Millisecond)
	}
	c.settle(5 * time.Second)
	for _, id := range []ProcessID{"a", "b", "c"} {
		if got := len(c.rec[id].messages()); got != 20 {
			t.Fatalf("%s delivered %d/20 messages under loss", id, got)
		}
	}
}

// TestPlainFIFOViolatesCausality documents what Multicast does not promise:
// order is per sender only, so where a→c loses a's cause while b→c carries
// b's reaction, the reaction overtakes its cause at c. The a→c block is
// lifted after the reaction and well inside the 500 ms suspect timeout, so
// no view changes and a's cause reaches c as a retransmission. Nothing
// built on this package may assume more.
func TestPlainFIFOViolatesCausality(t *testing.T) {
	c := newCluster(t, 1, netsim.Profile{Delay: time.Millisecond})
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")
	c.net.SetLinkOneWayDown("a", "c", true)

	if err := c.mem["a"].Multicast([]byte("cause")); err != nil {
		t.Fatal(err)
	}
	// b reacts as soon as it delivers the cause.
	c.settle(5 * time.Millisecond)
	if err := c.mem["b"].Multicast([]byte("reaction")); err != nil {
		t.Fatal(err)
	}
	c.settle(100 * time.Millisecond)
	c.net.SetLinkOneWayDown("a", "c", false)
	c.settle(time.Second)

	if got := payloadsAt(c, "c"); fmt.Sprint(got) != "[reaction cause]" {
		t.Fatalf("c delivered %v, want the reaction before its cause", got)
	}
}

// payloadsAt lists the payloads id delivered, in delivery order.
func payloadsAt(c *cluster, id ProcessID) []string {
	var out []string
	for _, m := range c.rec[id].messages() {
		out = append(out, m.data)
	}
	return out
}

// TestVirtualSynchrony checks the defining property: members that survive a
// view change together deliver the same set of old-view messages before the
// new view, even when the sender crashes mid-burst under packet loss.
func TestVirtualSynchrony(t *testing.T) {
	prof := netsim.LAN()
	prof.Loss = 0.05
	c := newCluster(t, 3, prof)
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(10*time.Second, "a", "b", "c")

	for i := 0; i < 30; i++ {
		if err := c.mem["a"].Multicast([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let some (but likely not all) repair happen, then kill the sender.
	c.settle(30 * time.Millisecond)
	c.net.Crash("a")
	c.waitConverged(5*time.Second, "b", "c")
	c.settle(time.Second)

	deliveredBefore := func(id ProcessID) []string {
		newID := c.rec[id].lastView().ID
		var out []string
		for _, m := range c.rec[id].messages() {
			if m.from == "a" && m.view != newID {
				out = append(out, m.data)
			}
		}
		return out
	}
	gotB, gotC := deliveredBefore("b"), deliveredBefore("c")
	if len(gotB) != len(gotC) {
		t.Fatalf("virtual synchrony violated: b delivered %d, c delivered %d", len(gotB), len(gotC))
	}
	for i := range gotB {
		if gotB[i] != gotC[i] {
			t.Fatalf("virtual synchrony violated at %d: %q vs %q", i, gotB[i], gotC[i])
		}
	}
	t.Logf("both survivors delivered the same %d of 30 messages from the crashed sender", len(gotB))
}

func TestPartitionThenMerge(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a", "b")
	c.waitConverged(3*time.Second, "a", "b", "c")

	c.net.Partition([]transport.Addr{"a"}, []transport.Addr{"b", "c"})
	c.waitConverged(5*time.Second, "b", "c")
	if !c.converged("a") {
		c.settle(2 * time.Second)
	}
	va := c.rec["a"].lastView()
	if len(va.Members) != 1 || va.Members[0] != "a" {
		t.Fatalf("a's partition view = %v, want {a}", va)
	}

	c.net.Heal()
	c.waitConverged(8*time.Second, "a", "b", "c")
}

func TestLeaveGraceful(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	if err := c.mem["c"].Leave(); err != nil {
		t.Fatal(err)
	}
	took := c.waitConverged(3*time.Second, "a", "b")
	// Graceful leave must be faster than failure detection.
	if took >= 500*time.Millisecond {
		t.Fatalf("graceful leave took %v, want < suspect timeout (500ms)", took)
	}
	if err := c.mem["c"].Multicast([]byte("x")); err == nil {
		c.settle(3 * time.Second) // allow grace deactivation
		if err := c.mem["c"].Multicast([]byte("x")); err != ErrClosed {
			t.Fatalf("Multicast after Leave = %v, want ErrClosed", err)
		}
	}
}

func TestConcurrentJoins(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	ids := []ProcessID{"a", "b", "c", "d", "e"}
	c.join("a", "g")
	for _, id := range ids[1:] {
		c.join(id, "g", "a")
	}
	c.waitConverged(8*time.Second, ids...)
}

func TestCrashDuringJoinStorm(t *testing.T) {
	c := newCluster(t, 5, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.settle(200 * time.Millisecond)
	c.join("c", "g", "a")
	c.join("d", "g", "a")
	c.net.Crash("b") // crash while joins are in flight
	c.waitConverged(8*time.Second, "a", "c", "d")
}

func TestMulticastDuringViewChangeIsQueued(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.join("c", "g", "a")
	c.waitConverged(3*time.Second, "a", "b", "c")

	c.net.Crash("c")
	// Give the FD time to suspect and the flush to start, then multicast
	// mid-change.
	c.settle(600 * time.Millisecond)
	if err := c.mem["a"].Multicast([]byte("during-change")); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(5*time.Second, "a", "b")
	c.settle(time.Second)

	found := false
	for _, m := range c.rec["b"].messages() {
		if m.data == "during-change" {
			found = true
		}
	}
	if !found {
		t.Fatal("message multicast during view change was lost")
	}
}

func TestAnycastDeliversToMember(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	outsider := c.addProcess("z")
	if err := outsider.Anycast("a", "g", []byte("hello-group")); err != nil {
		t.Fatal(err)
	}
	c.settle(100 * time.Millisecond)
	msgs := c.rec["a"].messages()
	if len(msgs) != 1 || msgs[0].data != "hello-group" || msgs[0].from != "z" {
		t.Fatalf("anycast delivery = %v", msgs)
	}
}

func TestAnycastToNonMemberGroupIsDropped(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	outsider := c.addProcess("z")
	if err := outsider.Anycast("a", "other-group", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.settle(100 * time.Millisecond)
	if msgs := c.rec["a"].messages(); len(msgs) != 0 {
		t.Fatalf("anycast for a non-member group delivered: %v", msgs)
	}
}

func TestDirectSend(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	a := c.addProcess("a")
	b := c.addProcess("b")
	var got string
	var from ProcessID
	b.SetDirectHandler(func(f ProcessID, payload []byte) {
		from, got = f, string(payload)
	})
	if err := a.Send("b", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	c.settle(100 * time.Millisecond)
	if got != "direct" || from != "a" {
		t.Fatalf("direct send: got %q from %q", got, from)
	}
}

func TestJoinTwiceFails(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	if _, err := c.proc["a"].Join("g", Handlers{}); err == nil {
		t.Fatal("second Join of the same group succeeded")
	}
}

func TestProcessClose(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")
	c.proc["b"].Close()
	if err := c.mem["b"].Multicast([]byte("x")); err != ErrClosed {
		t.Fatalf("Multicast after Close = %v, want ErrClosed", err)
	}
	// "a" must eventually see "b" gone via the failure detector.
	c.waitConverged(5*time.Second, "a")
}

func TestViewIncludes(t *testing.T) {
	v := View{Members: []ProcessID{"a", "c", "e"}}
	for _, tt := range []struct {
		id   ProcessID
		want bool
	}{{"a", true}, {"b", false}, {"c", true}, {"e", true}, {"f", false}, {"", false}} {
		if got := v.Includes(tt.id); got != tt.want {
			t.Errorf("Includes(%q) = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestProposalIDSupersedes(t *testing.T) {
	tests := []struct {
		a, b proposalID
		want bool
	}{
		{proposalID{}, proposalID{1, "a"}, true},
		{proposalID{1, "a"}, proposalID{2, "b"}, true},
		{proposalID{2, "b"}, proposalID{1, "a"}, false},
		{proposalID{1, "b"}, proposalID{1, "a"}, true},
		{proposalID{1, "a"}, proposalID{1, "b"}, false},
		{proposalID{1, "a"}, proposalID{1, "a"}, false},
	}
	for _, tt := range tests {
		if got := tt.b.supersedes(tt.a); got != tt.want {
			t.Errorf("%v supersedes %v = %v, want %v", tt.b, tt.a, got, tt.want)
		}
	}
}

// TestViewAgreementProperty: whenever two processes report the same ViewID,
// they must report identical membership. Exercised over a randomized
// crash/join schedule.
func TestViewAgreementProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prof := netsim.LAN()
			prof.Loss = 0.02
			c := newCluster(t, seed, prof)
			ids := []ProcessID{"a", "b", "c", "d"}
			c.join("a", "g")
			for _, id := range ids[1:] {
				c.join(id, "g", "a")
			}
			c.settle(time.Duration(seed) * 333 * time.Millisecond)
			crash := ids[seed%int64(len(ids))]
			if crash != "a" || seed%2 == 0 {
				c.net.Crash(crash)
			}
			c.settle(4 * time.Second)

			// Gather every view ever installed by anyone; same ID must
			// mean same membership.
			byID := make(map[ViewID][]ProcessID)
			for _, id := range ids {
				c.rec[id].mu.Lock()
				views := append([]View(nil), c.rec[id].views...)
				c.rec[id].mu.Unlock()
				for _, v := range views {
					if prev, ok := byID[v.ID]; ok {
						if len(prev) != len(v.Members) {
							t.Fatalf("view %v: memberships %v vs %v", v.ID, prev, v.Members)
						}
						for i := range prev {
							if prev[i] != v.Members[i] {
								t.Fatalf("view %v: memberships %v vs %v", v.ID, prev, v.Members)
							}
						}
					} else {
						byID[v.ID] = v.Members
					}
				}
			}
		})
	}
}

func BenchmarkMulticastTwoMembers(b *testing.B) {
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	mkProc := func(id ProcessID) *Process {
		ep, err := net.NewEndpoint(id)
		if err != nil {
			b.Fatal(err)
		}
		return NewProcess(Config{Clock: clk, Endpoint: ep})
	}
	pa, pb := mkProc("a"), mkProc("b")
	n := 0
	ma, _ := pa.Join("g", Handlers{})
	_, _ = pb.Join("g", Handlers{OnMessage: func(string, ProcessID, []byte) { n++ }}, "a")
	clk.Advance(3 * time.Second)
	payload := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ma.Multicast(payload)
		clk.Advance(time.Millisecond)
	}
}

func TestProcessGroups(t *testing.T) {
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g1")
	if _, err := c.proc["a"].Join("g2", Handlers{}); err != nil {
		t.Fatal(err)
	}
	if got := activeGroups(c.proc["a"]); len(got) != 2 || got[0] != "g1" || got[1] != "g2" {
		t.Fatalf("groups = %v", got)
	}
	if err := c.mem["a"].Leave(); err != nil { // leaves g1 (singleton: immediate)
		t.Fatal(err)
	}
	if got := activeGroups(c.proc["a"]); len(got) != 1 || got[0] != "g2" {
		t.Fatalf("groups after leave = %v", got)
	}
}

// activeGroups returns the sorted names of the groups p is a member of.
func activeGroups(p *Process) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, m := range p.members {
		if m.active {
			out = append(out, m.group)
		}
	}
	slices.Sort(out)
	return out
}

// TestViewTraceNote pins the text of the "gcs.view" trace event: the install
// emits its fields as a record, and its rendered note must equal what fmt
// prints for the installed view — the note's bytes are in -stats output.
func TestViewTraceNote(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	reg := obs.NewRegistry("a", clk.Now)
	var last View
	for _, id := range []transport.Addr{"a", "b"} {
		ep, err := net.NewEndpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, h := Config{Clock: clk, Endpoint: ep}, Handlers{}
		if id == "a" {
			cfg.Obs, h.OnView = reg, func(v View) { last = v }
		}
		p := NewProcess(cfg)
		defer p.Close()
		if _, err := p.Join("vod.session.client-1", h, "a"); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)
	if len(last.Members) != 2 {
		t.Fatalf("a's view = %v, want {a, b}", last.Members)
	}
	var notes []string
	for _, ev := range reg.Snapshot().Events() {
		if ev.Kind == "gcs.view" {
			notes = append(notes, ev.Note)
		}
	}
	want := fmt.Sprintf("%s %s members=%d", last.Group, last.ID, len(last.Members))
	if len(notes) == 0 || notes[len(notes)-1] != want {
		t.Fatalf("gcs.view notes = %q, want the last to be %q", notes, want)
	}
}
