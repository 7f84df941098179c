package server

import (
	"fmt"
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

func TestMemberOrderNewcomersFirst(t *testing.T) {
	members := []gcs.ProcessID{"s1", "s2", "s3", "s4"}
	order := memberOrder(members, map[gcs.ProcessID]bool{"s3": true})
	want := []gcs.ProcessID{"s3", "s1", "s2", "s4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMemberOrderNoNewcomers(t *testing.T) {
	members := []gcs.ProcessID{"s2", "s1"}
	order := memberOrder(members, nil)
	if order[0] != "s1" || order[1] != "s2" {
		t.Fatalf("order = %v, want sorted [s1 s2]", order)
	}
}

func TestMemberOrderAllNewcomers(t *testing.T) {
	members := []gcs.ProcessID{"s2", "s1"}
	order := memberOrder(members, map[gcs.ProcessID]bool{"s1": true, "s2": true})
	if len(order) != 2 || order[0] != "s1" {
		t.Fatalf("order = %v", order)
	}
}

// TestAssignCoverageProperty: every client gets exactly one owner, and the
// load split never differs by more than one.
func TestAssignCoverageProperty(t *testing.T) {
	prop := func(nClients uint8, nServers uint8) bool {
		ns := int(nServers%8) + 1
		nc := int(nClients)
		var clients []string
		for i := 0; i < nc; i++ {
			clients = append(clients, fmt.Sprintf("c%03d", i))
		}
		var order []gcs.ProcessID
		for i := 0; i < ns; i++ {
			order = append(order, gcs.ProcessID(fmt.Sprintf("s%d", i)))
		}
		got := assign(clients, order)
		if len(got) != nc {
			return false
		}
		load := map[gcs.ProcessID]int{}
		for _, owner := range got {
			load[owner]++
		}
		min, max := nc, 0
		for _, o := range order {
			n := load[o]
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if nc == 0 {
			return true
		}
		return max-min <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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

func TestAssignDeterministicAndBalanced(t *testing.T) {
	order := []gcs.ProcessID{"s1", "s2", "s3"}
	clients := []string{"c5", "c2", "c9", "c1", "c7", "c3"}
	a := assign(clients, order)
	b := assign([]string{"c1", "c2", "c3", "c5", "c7", "c9"}, order)
	load := map[gcs.ProcessID]int{}
	for id, owner := range a {
		if b[id] != owner {
			t.Fatalf("assignment depends on input order: %v vs %v", a, b)
		}
		load[owner]++
	}
	for s, n := range load {
		if n != 2 {
			t.Fatalf("server %s assigned %d clients, want 2: %v", s, n, load)
		}
	}
}

func TestAssignEmptyOrder(t *testing.T) {
	if got := assign([]string{"c1"}, nil); len(got) != 0 {
		t.Fatalf("Assign with no members = %v", got)
	}
}
