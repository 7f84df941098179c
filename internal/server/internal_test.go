package server

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/wire"
)

// slots returns each member's slot in the deal order, newcomer[i] being
// members[i]'s flag.
func slots(members []gcs.ProcessID, newcomer ...bool) []int {
	ex := exchange{newcomer: make([]bool, len(members))}
	copy(ex.newcomer, newcomer)
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = ex.slot(members, m)
	}
	return out
}

func TestMemberOrderNewcomersFirst(t *testing.T) {
	members := []gcs.ProcessID{"s1", "s2", "s3", "s4"}
	got := slots(members, false, false, true, false)
	if want := []int{1, 2, 0, 3}; !slices.Equal(got, want) {
		t.Fatalf("slots of %v with newcomer s3 = %v, want %v", members, got, want)
	}
}

func TestMemberOrderNoNewcomers(t *testing.T) {
	members := []gcs.ProcessID{"s1", "s2"}
	if got := slots(members); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("slots = %v, want ID order [0 1]", got)
	}
}

func TestMemberOrderAllNewcomers(t *testing.T) {
	members := []gcs.ProcessID{"s1", "s2"}
	if got := slots(members, true, true); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("slots = %v, want ID order [0 1]", got)
	}
}

// TestAssignCoverageProperty: the slots are a permutation of the view, so
// under the i % len(Members) rule every client gets exactly one owner and the
// load split never differs by more than one.
func TestAssignCoverageProperty(t *testing.T) {
	prop := func(nServers uint8, newcomer [8]bool) bool {
		ns := int(nServers%8) + 1
		var members []gcs.ProcessID
		for i := 0; i < ns; i++ {
			members = append(members, gcs.ProcessID(fmt.Sprintf("s%d", i)))
		}
		got := slots(members, newcomer[:ns]...)
		slices.Sort(got)
		for i, slot := range got {
			if slot != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dealRig is serverRig with clients known to the movie group and a view of
// members installed, every member heard: it returns the clients the deal
// gives s1.
func dealRig(t *testing.T, clients []string, members ...gcs.ProcessID) []string {
	t.Helper()
	_, s, _ := serverRig(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.movies["m"]
	for _, id := range clients {
		ms.mergeLocked(wire.ClientRecord{ClientID: id, ClientAddr: id, Rate: 30, SentAt: 1})
	}
	ms.view = gcs.View{Group: movieGroup("m"), ID: gcs.ViewID{Seq: 99, Coord: "s1"}, Members: members}
	ms.ex.heard = make([]bool, len(members))
	ms.ex.newcomer = make([]bool, len(members))
	ms.redistributeLocked()
	var mine []string
	for id, sess := range s.sessions {
		if !sess.closed {
			mine = append(mine, id)
		}
	}
	slices.Sort(mine)
	return mine
}

func TestAssignDeterministicAndBalanced(t *testing.T) {
	// c1 c2 c3 c5 c7 c9 in ID order: s1, in slot 0, is dealt the first
	// and the fourth, whatever order the table holds them in.
	got := dealRig(t, []string{"c5", "c2", "c9", "c1", "c7", "c3"}, "s1", "s2", "s3")
	if want := []string{"c1", "c5"}; !slices.Equal(got, want) {
		t.Fatalf("s1 dealt %v, want %v", got, want)
	}
}

func TestAssignEmptyOrder(t *testing.T) {
	if slot := (&exchange{}).slot(nil, "s1"); slot != -1 {
		t.Fatalf("slot in an empty view = %d, want -1", slot)
	}
	if got := dealRig(t, []string{"c1"}); len(got) != 0 {
		t.Fatalf("an empty view dealt s1 %v", got)
	}
}

// serverRig builds a started server on a private simulated network for
// white-box tests.
func serverRig(t *testing.T) (*clock.Virtual, *Server, *mpeg.Movie) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	network := netsim.New(clk, 1, netsim.LAN())
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1})
	cat := store.NewCatalog()
	cat.Add(movie)
	s, err := New(Config{ID: "s1", Clock: clk, Network: network, Catalog: cat, Peers: []string{"s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	clk.Advance(time.Second)
	return clk, s, movie
}

func TestResolveDuplicateTwoStrikes(t *testing.T) {
	_, s, movie := serverRig(t)
	s.mu.Lock()
	ms := s.movies["m"]
	rec := wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30}
	s.startSessionLocked(rec, movie, false)
	s.mu.Unlock()

	claim := func(from gcs.ProcessID) {
		s.mu.Lock()
		ms.resolveDuplicateLocked(from, rec)
		s.mu.Unlock()
	}

	// A claim from a HIGHER-ID peer never releases our session.
	claim("s9")
	claim("s9")
	if len(s.ActiveSessions()) != 1 {
		t.Fatal("higher-ID claim released the session")
	}
	// First claim from a lower-ID peer: strike one, session survives.
	claim("s0")
	if len(s.ActiveSessions()) != 1 {
		t.Fatal("single lower-ID claim released the session (race guard missing)")
	}
	// Second claim: duplicate confirmed, release.
	claim("s0")
	if len(s.ActiveSessions()) != 0 {
		t.Fatal("repeated lower-ID claim did not release the session")
	}
}

func TestResolveDuplicateResetOnViewChange(t *testing.T) {
	clk, s, movie := serverRig(t)
	s.mu.Lock()
	ms := s.movies["m"]
	rec := wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30}
	s.startSessionLocked(rec, movie, false)
	ms.resolveDuplicateLocked("s0", rec) // strike one
	s.mu.Unlock()

	// A view change (here: the singleton view reinstalling via onView)
	// must clear conflict evidence.
	ms.onView(gcs.View{
		Group:   movieGroup("m"),
		ID:      gcs.ViewID{Seq: 99, Coord: "s1"},
		Members: []gcs.ProcessID{"s1"},
	})
	clk.Advance(100 * time.Millisecond)

	s.mu.Lock()
	ms.resolveDuplicateLocked("s0", rec) // strike one again, not two
	s.mu.Unlock()
	if len(s.ActiveSessions()) != 1 {
		t.Fatal("conflict evidence survived a view change")
	}
}

// TestStoppedServerDealsNothing: a server stopped while its view's exchange
// waits for a silent peer takes over no client when the exchange times out.
func TestStoppedServerDealsNothing(t *testing.T) {
	clk, s, _ := serverRig(t)
	ms := s.movies["m"]
	s.mu.Lock()
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", ClientAddr: "c1", Rate: 30, SentAt: 1})
	s.mu.Unlock()
	ms.onView(gcs.View{
		Group:   movieGroup("m"),
		ID:      gcs.ViewID{Seq: 99, Coord: "s1"},
		Members: []gcs.ProcessID{"s1", "s2"}, // s2 never answers
	})
	s.Stop()
	clk.Advance(3 * time.Second)
	if st := s.Stats(); st.Takeovers != 0 || len(s.ActiveSessions()) != 0 {
		t.Fatalf("stopped server dealt itself clients: %d takeovers, sessions %v", st.Takeovers, s.ActiveSessions())
	}
}

func TestMergeLatestWins(t *testing.T) {
	_, s, _ := serverRig(t)
	ms := s.movies["m"]
	s.mu.Lock()
	defer s.mu.Unlock()

	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", Offset: 100, SentAt: 1000})
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", Offset: 50, SentAt: 500}) // stale
	if got := ms.clients["c1"].Offset; got != 100 {
		t.Fatalf("stale record overwrote fresh one: offset %d", got)
	}
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", Offset: 200, SentAt: 2000})
	if got := ms.clients["c1"].Offset; got != 200 {
		t.Fatalf("fresh record not applied: offset %d", got)
	}
	// A departed tombstone removes the client, and stale resurrection is
	// rejected.
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", Departed: true, SentAt: 3000})
	if _, ok := ms.clients["c1"]; ok {
		t.Fatal("tombstone did not remove the client")
	}
	ms.mergeLocked(wire.ClientRecord{ClientID: "c1", Offset: 150, SentAt: 2500})
	if got := ms.clients["c1"].Offset; got != 150 {
		// Note: resurrection with an *older* timestamp is accepted once
		// the tombstone dropped the entry — documented simplification
		// (tombstones are not persisted). This assertion just pins the
		// current behavior.
		t.Fatalf("post-tombstone merge: offset %d", got)
	}
}

func TestQualityThinningKeepsIFrames(t *testing.T) {
	// White-box check of the thinning credit logic via a full session:
	// covered end-to-end in server_test.go; here verify the credit math
	// directly over the movie structure.
	movie := mpeg.Generate("m", mpeg.StreamConfig{Duration: 10 * time.Second, Seed: 1})
	fps := movie.FPS()
	quality := 10
	credit := 0
	sent, sentI, totalI := 0, 0, 0
	for i := 0; i < movie.TotalFrames(); i++ {
		info := movie.Frame(i)
		if info.Class == wire.FrameI {
			totalI++
		}
		credit += quality
		if info.Class == wire.FrameI || credit >= fps {
			credit -= fps
			sent++
			if info.Class == wire.FrameI {
				sentI++
			}
		}
	}
	if sentI != totalI {
		t.Fatalf("thinning dropped I frames: %d of %d sent", sentI, totalI)
	}
	// Sent rate ≈ quality/fps of the stream (I frames can push it a bit
	// above).
	frac := float64(sent) / float64(movie.TotalFrames())
	if frac < 0.30 || frac > 0.45 {
		t.Fatalf("thinned stream is %.0f%% of frames, want ≈ 33%%", frac*100)
	}
}
