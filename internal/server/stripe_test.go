package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flowctl"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stripeRig is a started server on a delay-free network, so between clock
// steps nothing is in flight and the clock's pending events are its timers.
type stripeRig struct {
	t     *testing.T
	clk   *clock.Virtual
	net   *netsim.Network
	s     *Server
	movie *mpeg.Movie
}

func newStripeRig(t *testing.T, flow flowctl.Params) *stripeRig {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 60 * time.Second, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	net := netsim.New(clk, 1, netsim.Profile{})
	s, err := New(Config{ID: "s1", Clock: clk, Network: net, Catalog: cat, Peers: []string{"s1"}, Flow: flow})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	s.mu.Lock()
	s.leasesLocked() // its sweep is a standing timer from the first leased Open on
	s.mu.Unlock()
	clk.Advance(time.Second)
	return &stripeRig{t: t, clk: clk, net: net, s: s, movie: movie}
}

// open starts a leased session at rate, which attaches it to a stripe at
// once; its datagrams go to an address nobody holds.
func (r *stripeRig) open(id string, rate uint16) *session {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.startSessionLocked(wire.ClientRecord{ClientID: id, ClientAddr: id, Rate: rate, Leased: true}, r.movie, false)
}

func (r *stripeRig) end(sessions ...*session) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	for _, sess := range sessions {
		r.s.dropSessionLocked(sess)
	}
}

// parked reports how many stripes are parked, checking that each holds no
// session and that the per-title count agrees.
func (r *stripeRig) parked() int {
	r.t.Helper()
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	n := 0
	for key, st := range r.s.stripes {
		if !st.parked {
			continue
		}
		n++
		for _, sess := range st.entries {
			if sess != nil {
				r.t.Fatalf("parked stripe %v holds session %s", key, sess.rec.ClientID)
			}
		}
	}
	if got := r.s.parkedStripes[r.movie.ID()]; got != n {
		r.t.Fatalf("%d stripes parked, per-title count says %d", n, got)
	}
	return n
}

// TestStripeParkedForItsKey: once every leased session has ended, no stripe
// beat is armed and every stripe is parked empty; a session that attaches at
// a parked key later takes that stripe and restarts its beat, so no stripe
// and no beat is made.
func TestStripeParkedForItsKey(t *testing.T) {
	r := newStripeRig(t, flowctl.Params{})
	period := time.Second / 30
	idle := pendingEvents(r.clk)

	first := r.clk.Now()
	a, b := r.open("a", 30), r.open("b", 30)
	r.clk.Advance(period / 4) // four phase slots on
	c := r.open("c", 30)
	r.clk.Advance(10 * period)
	if a.stripe != b.stripe || a.stripe == c.stripe {
		t.Fatal("a and b should share a stripe and c have its own")
	}
	if got, want := pendingEvents(r.clk), idle+3+2; got != want {
		t.Fatalf("%d events pending with three sessions on two stripes, want %d", got, want)
	}
	key := a.stripe.key
	kept := a.stripe

	r.end(a, b, c)
	r.clk.Advance(2 * period)
	if n := len(r.s.sessions); n != 0 {
		t.Fatalf("%d sessions left", n)
	}
	if got := pendingEvents(r.clk); got != idle {
		t.Fatalf("%d events pending after every session ended, want %d: a stripe beat is still armed", got, idle)
	}
	if n := r.parked(); n != 2 || len(r.s.stripes) != 2 {
		t.Fatalf("%d of %d stripes parked, want both", n, len(r.s.stripes))
	}

	// The next instant in a's phase slot re-attaches at a's key.
	at := first.Add((r.clk.Now().Sub(first)/period + 1) * period)
	r.clk.AdvanceTo(at)
	d := r.open("d", 30)
	if d.stripe != kept || d.stripe.key != key {
		t.Fatal("the re-attach at a parked key did not take the parked stripe")
	}
	if len(r.s.stripes) != 2 || r.parked() != 1 {
		t.Fatalf("%d stripes, %d parked after the re-attach; want 2 and 1", len(r.s.stripes), r.parked())
	}
	if got, want := pendingEvents(r.clk), idle+1+1; got != want {
		t.Fatalf("%d events pending with one session on a restarted stripe, want %d", got, want)
	}
	sent := r.s.Stats().FramesSent
	r.clk.Advance(3 * period)
	if got := r.s.Stats().FramesSent - sent; got != 3 {
		t.Fatalf("the restarted stripe sent %d frames in three periods, want 3", got)
	}
}

// TestStripeFramesArriveInTheirTrain: two leased sessions on one stripe send
// their frames in the same beat, one after the other through the server's
// egress limit, so the frames form a serialization train. Each frame arrives
// at its own transit time: the one sent first in walk order arrives first,
// and the second exactly its own serialization time later, as two single
// sends would. No frame waits for the last slot of the train.
func TestStripeFramesArriveInTheirTrain(t *testing.T) {
	r := newStripeRig(t, flowctl.Params{})
	const egress = 1000 * 1000 // B/s: a frame of a few kB takes a few ms
	r.net.SetEgressLimit("s1", egress)
	type arrival struct {
		at   time.Time
		size int
	}
	got := map[string][]arrival{}
	for _, id := range []string{"a", "b"} {
		ep, err := r.net.NewEndpoint(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(_ transport.Addr, p []byte) {
			got[id] = append(got[id], arrival{r.clk.Now(), len(p)})
		})
	}
	a, b := r.open("a", 30), r.open("b", 30)
	if a.stripe == nil || a.stripe != b.stripe || a.stripePos != 0 {
		t.Fatal("a and b should share a stripe, a first in walk order")
	}
	r.clk.Advance(3 * time.Second / 2)
	if len(got["a"]) == 0 || len(got["a"]) != len(got["b"]) {
		t.Fatalf("a received %d frames and b %d, want the same number, at least one", len(got["a"]), len(got["b"]))
	}
	for i, fa := range got["a"] {
		fb := got["b"][i]
		if want := time.Duration(int64(fb.size) * int64(time.Second) / egress); fb.at.Sub(fa.at) != want {
			t.Fatalf("frame %d: b's arrived %v after a's, want %v, its own serialization time", i, fb.at.Sub(fa.at), want)
		}
	}
}

// TestParkedStripesCapped: a title whose sessions have used more keys than
// maxParkedStripes parks that many stripes and retires the rest. Flow
// control keeps a base rate within 27–33, so the keys past those seven
// rates come from emergency boosts: with q = 14 a minor boost adds 7 and a
// major one 14, 21 send periods in all.
func TestParkedStripesCapped(t *testing.T) {
	flow := flowctl.DefaultParams()
	flow.EmergencyQ = 14
	r := newStripeRig(t, flow)
	var all []*session
	// 21 send periods, opened at every millisecond of 50: every phase slot
	// of each, 336 keys.
	for ms := range 50 {
		for rate := uint16(27); rate <= 33; rate++ {
			for _, boost := range []wire.FlowKind{0, wire.FlowEmergencyMinor, wire.FlowEmergencyMajor} {
				all = append(all, r.openBoosted(fmt.Sprintf("v%d-%d-%d", ms, rate, boost), rate, boost))
			}
		}
		r.clk.Advance(time.Millisecond)
	}
	if n := len(r.s.stripes); n <= maxParkedStripes {
		t.Fatalf("only %d stripes for %d sessions, want more than the cap %d", n, len(all), maxParkedStripes)
	}
	r.end(all...)
	r.clk.Advance(100 * time.Millisecond)
	if n := r.parked(); n != maxParkedStripes || len(r.s.stripes) != n {
		t.Fatalf("%d stripes kept, %d parked; want the cap, %d", len(r.s.stripes), n, maxParkedStripes)
	}
}

// openBoosted opens a leased session at rate and, unless boost is 0,
// applies that emergency request to it at once, which moves the session to
// the stripe of its boosted rate.
func (r *stripeRig) openBoosted(id string, rate uint16, boost wire.FlowKind) *session {
	sess := r.open(id, rate)
	if boost == 0 {
		return sess
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	sess.rate.OnRequest(boost, 0)
	r.s.attachStripeLocked(sess)
	return sess
}

// pendingEvents is how many events clk holds queued. The clock keeps that
// count to itself, so the test reads the length of its event heap.
func pendingEvents(clk *clock.Virtual) int {
	return reflect.ValueOf(clk).Elem().FieldByName("heap").Len()
}
