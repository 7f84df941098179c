package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
)

// startFetchingServer brings up a server with an EMPTY catalog that must
// replicate the movie from its peers before serving it.
func (r *rig) startFetchingServer(t *testing.T, id string, movies ...string) *server.Server {
	t.Helper()
	return r.startFetchingInto(t, id, store.NewCatalog(), movies...)
}

// startFetchingInto is startFetchingServer with the (empty) catalog supplied
// by a caller that wants to look at the fetched copies afterwards.
func (r *rig) startFetchingInto(t *testing.T, id string, cat *store.Catalog, movies ...string) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		ID:          id,
		Clock:       r.clk,
		Network:     r.net,
		Catalog:     cat, // nothing pre-provisioned
		Peers:       r.peers,
		FetchMovies: movies,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r.servers[id] = s
	return s
}

// TestFreshServerReplicatesAndServes is the paper's §7 claim end to end:
// a server brought up with no special preparations (not even the movie)
// fetches it from a peer, joins the movie group, and absorbs the client.
func TestFreshServerReplicatesAndServes(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	c := r.startClient("c1", "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)
	if got := r.servingServerOf("c1"); got != "s1" {
		t.Fatalf("serving = %q before the new server", got)
	}

	// s2 starts empty-handed: fetch, join, take over as the newcomer.
	r.startFetchingServer(t, "s2", "casablanca")
	r.run(8 * time.Second)

	if got := r.servingServerOf("c1"); got != "s2" {
		t.Fatalf("serving = %q, want the freshly-replicated s2", got)
	}
	// Playback never noticed any of it.
	before := c.Counters().Displayed
	r.run(5 * time.Second)
	if got := c.Counters().Displayed - before; got < 130 {
		t.Fatalf("displayed %d frames after the replication handoff", got)
	}
	if got := c.Counters().MaxStallRun; got > 15 {
		t.Fatalf("froze %d ticks across the replication handoff", got)
	}
}

// TestFreshServerSurvivesDeadPeerInList: the fetch loop rotates past dead
// peers until it finds the movie.
func TestFreshServerSurvivesDeadPeerInList(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s0", "s1", "s2")
	// s0 is in everyone's peer list but never started; bind its address so
	// sends are silently dropped rather than erroring.
	if _, err := r.net.NewEndpoint("s0"); err != nil {
		t.Fatal(err)
	}
	r.startServer("s1")
	r.run(time.Second)

	r.startFetchingServer(t, "s2", "casablanca")
	r.run(15 * time.Second) // includes the dead-peer timeout cycle

	c := r.startClient("c1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("client state = %v; replicated server cannot serve", got)
	}
}
