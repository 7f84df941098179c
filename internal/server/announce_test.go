package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/placement"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pairRig is two started servers sharing one title on a LAN, their movie
// group formed, two seconds into the run — so both sync ticks (every 500 ms
// from Start) have just fired and the next is half a second away.
type pairRig struct {
	t      *testing.T
	clk    *clock.Virtual
	net    *netsim.Network
	movie  *mpeg.Movie
	s1, s2 *Server
}

func newPairRig(t *testing.T) *pairRig {
	t.Helper()
	r := &pairRig{t: t, clk: clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))}
	r.net = netsim.New(r.clk, 1, netsim.LAN())
	r.movie = mpeg.Generate("m", mpeg.StreamConfig{Duration: 60 * time.Second, Seed: 1})
	peers := []string{"s1", "s2"}
	for i, dst := range []**Server{&r.s1, &r.s2} {
		cat := store.NewCatalog()
		cat.Add(r.movie)
		s, err := New(Config{ID: peers[i], Clock: r.clk, Network: r.net, Catalog: cat, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		*dst = s
	}
	r.clk.Advance(2 * time.Second)
	if n := len(r.s1.movies["m"].view.Members); n != 2 {
		t.Fatalf("movie group has %d members after 2 s, want 2", n)
	}
	return r
}

// viewer adds a client that opens on s1 first; leased picks the tier, and
// gives the client a ring over s1 alone, which keeps that order.
func (r *pairRig) viewer(id string, leased bool) *client.Client {
	r.t.Helper()
	cfg := client.Config{ID: id, Clock: r.clk, Network: r.net, Servers: []string{"s1", "s2"}}
	if leased {
		cfg.Placement = placement.New(placement.DefaultVNodes)
		cfg.Placement.Add("s1")
	}
	c, err := client.New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(c.Close)
	return c
}

// knows reports whether s's knowledge table holds a record of clientID.
func knows(s *Server, clientID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.movies["m"].clients[clientID]
	return ok
}

// TestOpenAnnouncesOneRecord: what an Open multicasts on the movie group is
// the new session's record and nothing else, so its size does not grow with
// the sessions already live (when it was the server's whole table, the 200th
// Open of a burst shipped 200 records and the burst n²/2) — and it still does
// the job the immediate multicast exists for: the peer knows the newcomer one
// LAN delay after the OpenReply, and a crash before any periodic sync has
// carried the client still finds a successor that adopts it.
func TestOpenAnnouncesOneRecord(t *testing.T) {
	r := newPairRig(t)
	const burst = 200 // 2 ms apart: over before the next sync tick

	var first Stats
	for i := 0; i < burst; i++ {
		id := fmt.Sprintf("viewer-%03d", i)
		c := r.viewer(id, true)
		before := r.s1.Stats()
		if err := c.Watch("m"); err != nil {
			t.Fatal(err)
		}
		// Open out, OpenReply back: two LAN delays. A third for the
		// announcement, multicast with the reply, to reach the peer.
		r.clk.Advance(time.Millisecond)
		if c.State() != client.StateWatching || !r.s1.HasSession(id) {
			t.Fatalf("%s is not served by s1 a millisecond after its Open (state %v)", id, c.State())
		}
		if !knows(r.s2, id) {
			t.Fatalf("s2 does not know %s one LAN delay after its OpenReply", id)
		}
		r.clk.Advance(time.Millisecond)

		after := r.s1.Stats()
		got := Stats{SyncMessages: after.SyncMessages - before.SyncMessages, SyncBytes: after.SyncBytes - before.SyncBytes}
		if i == 0 {
			first = got
		}
		if got.SyncMessages != 1 || got != first {
			t.Fatalf("Open %d with %d sessions live multicast %d message(s), %d bytes; the first multicast %d, %d bytes",
				i+1, i, got.SyncMessages, got.SyncBytes, first.SyncMessages, first.SyncBytes)
		}
	}

	// One more viewer, on the paper's tier, whose only mention on the movie
	// group is its announcement: s1 dies 10 ms after the Open.
	late := r.viewer("late", false)
	if err := late.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Millisecond)
	if !r.s1.HasSession("late") {
		t.Fatal("s1 did not open the late viewer's session")
	}
	r.s1.Stop()
	r.net.Crash(transport.Addr("s1"))
	r.clk.Advance(15 * time.Second)

	// The view change hands s2 the session-group viewer; the leased ones
	// re-anycast their Opens. Either way s2 resumes each from its knowledge
	// table — a takeover — and opens nothing afresh.
	st := r.s2.Stats()
	if st.Takeovers != burst+1 || st.SessionsOpened != 0 {
		t.Fatalf("s2 took over %d sessions and opened %d afresh, want %d and 0", st.Takeovers, st.SessionsOpened, burst+1)
	}
	if !r.s2.HasSession("late") || late.State() != client.StateWatching {
		t.Fatalf("the viewer that opened 10 ms before the crash was orphaned (state %v)", late.State())
	}
}

// TestTwoStrikesNeedTwoSyncPeriods: a peer's claim on a client this server
// streams to may be a sync it sent just before releasing that client itself,
// so only a repeated claim releases — and the repeat must be a sync period
// later, or it proves nothing. s2 serves x; s1 holds a duplicate it is about
// to drop (the window a redistribution leaves). Opens arriving on s1 inside
// that window must not count as claims on x, which they did when each Open
// re-multicast s1's whole table.
func TestTwoStrikesNeedTwoSyncPeriods(t *testing.T) {
	r := newPairRig(t)
	x := wire.ClientRecord{ClientID: "x", ClientAddr: "x", Rate: 30, Leased: true}
	hold := func(s *Server) {
		s.mu.Lock()
		s.startSessionLocked(x, r.movie, false)
		s.mu.Unlock()
	}
	hold(r.s2)
	hold(r.s1)

	// s1's sync tick at 2.5 s carries x: strike one at s2.
	r.clk.Advance(510 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := r.viewer(fmt.Sprintf("viewer-%d", i), true).Watch("m"); err != nil {
			t.Fatal(err)
		}
		r.clk.Advance(time.Millisecond)
	}
	if n := len(r.s1.ActiveSessions()); n != 4 {
		t.Fatalf("s1 holds %d sessions, want x and the 3 that just opened", n)
	}
	// s1's own release lands, well inside the sync period.
	r.s1.mu.Lock()
	r.s1.dropSessionLocked(r.s1.sessions["x"])
	r.s1.mu.Unlock()
	r.clk.Advance(2 * time.Second)
	if !r.s2.HasSession("x") || r.s2.Stats().Releases != 0 {
		t.Fatal("a burst of Opens on s1 made s2 release a session only s2 serves: x is orphaned")
	}

	// A duplicate that outlives a sync period is a real one, and still
	// resolves: the higher ID yields to the next periodic claim.
	hold(r.s1)
	r.clk.Advance(time.Second)
	if r.s2.HasSession("x") || !r.s1.HasSession("x") || r.s2.Stats().Releases != 1 {
		t.Fatalf("standing duplicate: s1 serves x = %v, s2 serves x = %v, s2 releases = %d; want true, false, 1",
			r.s1.HasSession("x"), r.s2.HasSession("x"), r.s2.Stats().Releases)
	}
}

// TestDepartureTombstoneIsCounted: a departure's tombstone goes out on the
// movie group like any other state message, so it is sync traffic — it was
// multicast but missing from Stats and server.sync_*, and the overhead ratio
// of Tbl S under-reported by one message per finished session.
func TestDepartureTombstoneIsCounted(t *testing.T) {
	r := newPairRig(t)
	c := r.viewer("viewer", true)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(100 * time.Millisecond)
	if !knows(r.s2, "viewer") {
		t.Fatal("s2 never learned of the viewer")
	}
	before := r.s1.Stats()
	if err := c.StopWatching(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Millisecond) // well before the next sync tick
	after := r.s1.Stats()
	if r.s1.HasSession("viewer") || knows(r.s2, "viewer") {
		t.Fatal("the Stop did not retire the session on s1 and its record on s2")
	}
	if after.SyncMessages != before.SyncMessages+1 || after.SyncBytes <= before.SyncBytes {
		t.Fatalf("the tombstone was multicast but not counted: SyncMessages %d -> %d, SyncBytes %d -> %d",
			before.SyncMessages, after.SyncMessages, before.SyncBytes, after.SyncBytes)
	}
}
