package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestResetMatchesNew: a network Reset on its reset clock — after a run that
// left copied and stable packets in flight, endpoints open, links blocked, a
// loss burst and a registry attached — delivers a lossy, jittered workload
// exactly as New does on a fresh clock: the same packets, at the same
// instants, with the same counters; and the old registry counts nothing more.
func TestResetMatchesNew(t *testing.T) {
	prof := WAN()
	prof.Loss, prof.Duplicate = 0.1, 0.05
	clk := clock.NewVirtual(simEpoch)
	used := New(clk, 7, prof)
	reg := obs.NewRegistry("net", clk.Now)
	used.SetObs(reg)
	a, _ := used.NewEndpoint("a")
	b, _ := used.NewEndpoint("b")
	b.SetHandler(func(transport.Addr, []byte) {})
	c, _ := used.NewEndpoint("c")
	c.SetHandler(func(transport.Addr, []byte) {})
	used.SetLinkOneWayDown("c", "a", true)
	used.SetExtraLoss(0.3)
	used.SetEgressLimit("a", 1000)
	refs := a.(transport.RefSender)
	for i := 0; i < 300; i++ {
		_ = a.Send("b", make([]byte, 40+i))
		_ = refs.SendStableRef(refs.ResolveAddr("b"), []byte{1})
		_ = refs.SendStableRef(refs.ResolveAddr("c"), []byte{2})
	}
	clk.Advance(30 * time.Millisecond)
	regBefore := reg.Snapshot()

	clk.Reset(simEpoch)
	if open := used.Reset(42, prof); open != 3 {
		t.Errorf("Reset found %d endpoints open, want 3", open)
	}

	script := func(clk *clock.Virtual, n *Network) (log []string, c counters) {
		count := counted(n)
		eps := make([]transport.Endpoint, 3)
		for i := range eps {
			addr := transport.Addr(fmt.Sprintf("n%d", i))
			eps[i], _ = n.NewEndpoint(addr)
			eps[i].SetHandler(func(from transport.Addr, p []byte) {
				log = append(log, fmt.Sprintf("%v %s>%s %x", clk.Now().Sub(simEpoch), from, addr, p))
			})
		}
		for i := 0; i < 200; i++ {
			_ = eps[i%3].Send(transport.Addr(fmt.Sprintf("n%d", (i+1)%3)), []byte{byte(i), byte(i >> 8)})
			clk.Advance(time.Millisecond)
		}
		clk.Advance(time.Second)
		return log, count()
	}
	freshClk := clock.NewVirtual(simEpoch)
	gotLog, gotStats := script(clk, used)
	wantLog, wantStats := script(freshClk, New(freshClk, 42, prof))
	if gotStats != wantStats || fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Errorf("the reset network delivered %d packets (%+v), a new one %d (%+v), or at other instants",
			len(gotLog), gotStats, len(wantLog), wantStats)
	}
	if gotStats.dropped == 0 || gotStats.delivered == 0 {
		t.Errorf("counters %+v: the workload should both drop and deliver", gotStats)
	}
	if after := reg.Snapshot(); fmt.Sprint(after.Counters) != fmt.Sprint(regBefore.Counters) {
		t.Errorf("the registry of the old run still counts after Reset: %v, was %v", after.Counters, regBefore.Counters)
	}
}
