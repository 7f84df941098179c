package gcs

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestMemberlessProcessIsInert: a process that has joined no group — a
// leased viewer's — frames Anycast/Send datagrams and dispatches direct ones,
// and schedules nothing: no ticker, no detector. Its first Join arms the one
// ticker on the beat a ticker running since NewProcess would be on: beats at
// NewProcess + k*tickBase with tickCount k, heartbeats on the even counts.
func TestMemberlessProcessIsInert(t *testing.T) {
	const delay = time.Millisecond
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.Profile{Delay: delay})
	ep, err := net.NewEndpoint("v")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.NewEndpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	born := clk.Now()
	var inbound int
	var heartbeats []time.Duration // arrival offsets from NewProcess
	peer.SetHandler(func(_ transport.Addr, pkt []byte) {
		inbound++
		if bytes.Equal(pkt, encodeHeartbeat()) {
			heartbeats = append(heartbeats, clk.Now().Sub(born))
		}
	})

	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	defer p.Close()
	var direct []byte
	p.SetDirectHandler(func(_ ProcessID, payload []byte) { direct = slices.Clone(payload) })
	if got := pendingEvents(clk); got != 0 {
		t.Fatalf("NewProcess scheduled %d events, want 0", got)
	}

	// One datagram out, one in: the only events are the network's own
	// deliveries, and once they have fired nothing is left.
	if err := p.Anycast("peer", "g", []byte("open")); err != nil {
		t.Fatal(err)
	}
	if err := peer.Send("v", appendDirect(nil, &msgDirect{payload: []byte("reply")})); err != nil {
		t.Fatal(err)
	}
	if fired := clk.Advance(2 * delay); fired != 2 {
		t.Fatalf("%d events fired for two datagrams in flight, want 2", fired)
	}
	if inbound != 1 || string(direct) != "reply" {
		t.Fatalf("peer got %d datagrams, direct handler got %q; want 1 and \"reply\"", inbound, direct)
	}
	if got := pendingEvents(clk); got != 0 {
		t.Fatalf("memberless process holds %d pending events, want 0", got)
	}
	if fired := clk.Advance(10 * time.Second); fired != 0 {
		t.Fatalf("%d events fired in 10 idle seconds of a memberless process, want 0", fired)
	}
	p.mu.Lock()
	ticks, suspected := p.tickCount, p.fd.isSuspectedLocked("peer")
	p.mu.Unlock()
	if ticks != 0 || suspected {
		t.Fatalf("memberless process ticked %d times, suspects its correspondent: %v", ticks, suspected)
	}

	// The first Join arms exactly one standing timer; a second adds none.
	// It comes 2*delay past a beat, and the count is already that beat's.
	age := clk.Now().Sub(born)
	if age%tickBase != 2*delay {
		t.Fatalf("Join comes %v after NewProcess, want 2*delay past a beat", age)
	}
	beats := uint64(age / tickBase)
	for _, g := range []string{"g", "h"} {
		if _, err := p.Join(g, Handlers{}); err != nil {
			t.Fatal(err)
		}
		if got := pendingEvents(clk); got != 1 {
			t.Fatalf("after Join(%q): %d pending events, want the one ticker", g, got)
		}
	}
	// A foreign singleton announces itself, so the detector has a peer to
	// ping; it arrives before the first beat.
	if err := peer.Send("v", appendPresence(nil, &msgPresence{group: "g", view: ViewID{Seq: 1, Coord: "peer"}, members: []ProcessID{"peer"}})); err != nil {
		t.Fatal(err)
	}
	tickCount := func() uint64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.tickCount
	}
	clk.Advance(tickBase - 2*delay - time.Nanosecond)
	if got := tickCount(); got != beats {
		t.Fatalf("tickCount = %d before beat %d is due, want %d", got, beats+1, beats)
	}
	clk.Advance(time.Nanosecond)
	if got := tickCount(); got != beats+1 {
		t.Fatalf("tickCount = %d at NewProcess+%v, want %d", got, clk.Now().Sub(born), beats+1)
	}
	clk.Advance(3*heartbeatInterval - tickBase + delay)
	if got := tickCount(); got != beats+3*hbDiv {
		t.Fatalf("tickCount = %d at NewProcess+%v, want %d", got, clk.Now().Sub(born), beats+3*hbDiv)
	}
	base := time.Duration(beats) * tickBase // beats is even: a heartbeat beat
	want := []time.Duration{base + heartbeatInterval + delay, base + 2*heartbeatInterval + delay, base + 3*heartbeatInterval + delay}
	if beats%hbDiv != 0 || !slices.Equal(heartbeats, want) {
		t.Fatalf("heartbeats reached the peer at NewProcess+%v, want NewProcess+%v", heartbeats, want)
	}
}

// TestJoinAtBirthBeatsOnePeriodLater: NewProcess and the first Join at one
// instant — every process the simulator builds — give the first beat one
// tickBase later with tickCount 1, which is what an eager ticker gave.
func TestJoinAtBirthBeatsOnePeriodLater(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	clk.Advance(1234567 * time.Microsecond) // born on no round instant
	ep, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	defer p.Close()
	if _, err := p.Join("g", Handlers{}); err != nil {
		t.Fatal(err)
	}
	for want := uint64(0); want < 3; want++ {
		clk.Advance(tickBase - time.Nanosecond)
		p.mu.Lock()
		got := p.tickCount
		p.mu.Unlock()
		if got != want {
			t.Fatalf("tickCount = %d just before beat %d, want %d", got, want+1, want)
		}
		clk.Advance(time.Nanosecond)
	}
}

// TestLeaveOfLastGroupKeepsTicker: one discipline — the ticker starts once, at
// the first Join, and stops at Close. Leaving every group does not stop it,
// and joining again does not arm a second.
func TestLeaveOfLastGroupKeepsTicker(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	ep, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	for round := 0; round < 2; round++ {
		m, err := p.Join("g", Handlers{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Leave(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if got := pendingEvents(clk); got != 1 {
			t.Fatalf("round %d: %d pending events after the last Leave, want the one ticker", round, got)
		}
	}
	p.Close()
	if got := pendingEvents(clk); got != 0 {
		t.Fatalf("%d pending events after Close, want 0", got)
	}
}

// TestCloseWithoutJoin: Close on a process that never joined has no ticker to
// stop, and everything after it says ErrClosed.
func TestCloseWithoutJoin(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	ep, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("v")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	p.Close()
	p.Close()
	if _, err := p.Join("g", Handlers{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Join after Close = %v, want ErrClosed", err)
	}
	if err := p.Anycast("s", "g", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Anycast after Close = %v, want ErrClosed", err)
	}
	if got := pendingEvents(clk); got != 0 {
		t.Fatalf("closed process holds %d pending events, want 0", got)
	}
}

// TestJoinRacesClose: the first Join arms the ticker under the same lock Close
// takes to mark the process closed, so whichever wins, no ticker is left armed
// on a closed process — the Join either fails with ErrClosed or its membership
// is deactivated and its ticker stopped. Run under -race -count=10.
func TestJoinRacesClose(t *testing.T) {
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	for i := 0; i < 200; i++ {
		ep, err := net.NewEndpoint("v")
		if err != nil {
			t.Fatal(err)
		}
		p := NewProcess(Config{Clock: clk, Endpoint: ep})
		var wg sync.WaitGroup
		var m *Member
		var joinErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			m, joinErr = p.Join("g", Handlers{})
		}()
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		if joinErr != nil && !errors.Is(joinErr, ErrClosed) {
			t.Fatalf("round %d: Join = %v, want nil or ErrClosed", i, joinErr)
		}
		if joinErr == nil {
			if err := m.Multicast([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: Multicast on a closed process = %v, want ErrClosed", i, err)
			}
		}
		if got := pendingEvents(clk); got != 0 {
			t.Fatalf("round %d (Join err %v): %d events pending on a closed process, want 0", i, joinErr, got)
		}
		_ = ep.Close() // frees the address for the next round
	}
}

// pendingEvents is how many events clk holds queued. The clock keeps that
// count to itself, so the test reads the length of its event heap.
func pendingEvents(clk *clock.Virtual) int {
	return reflect.ValueOf(clk).Elem().FieldByName("heap").Len()
}
