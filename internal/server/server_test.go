package server_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// rig assembles servers and clients on a simulated network.
type rig struct {
	t       *testing.T
	clk     *clock.Virtual
	net     *netsim.Network
	movie   *mpeg.Movie
	peers   []string
	servers map[string]*server.Server
	clients map[string]*client.Client
}

func newRig(t *testing.T, prof netsim.Profile, peers ...string) *rig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	return &rig{
		t:   t,
		clk: clk,
		net: netsim.New(clk, 11, prof),
		movie: mpeg.Generate("casablanca", mpeg.StreamConfig{
			Duration: 60 * time.Second,
			Seed:     1,
		}),
		peers:   peers,
		servers: make(map[string]*server.Server),
		clients: make(map[string]*client.Client),
	}
}

func (r *rig) startServer(id string) *server.Server {
	r.t.Helper()
	cat := store.NewCatalog()
	cat.Add(r.movie)
	s, err := server.New(server.Config{
		ID:      id,
		Clock:   r.clk,
		Network: r.net,
		Catalog: cat,
		Peers:   r.peers,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		r.t.Fatal(err)
	}
	r.servers[id] = s
	return s
}

func (r *rig) startClient(id string, servers ...string) *client.Client {
	r.t.Helper()
	c, err := client.New(client.Config{
		ID:      id,
		Clock:   r.clk,
		Network: r.net,
		Servers: servers,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.clients[id] = c
	return c
}

func (r *rig) run(d time.Duration) { r.clk.Advance(d) }

// servingCount returns how many live servers hold a session for clientID.
func (r *rig) servingCount(clientID string) int {
	n := 0
	for _, s := range r.servers {
		for _, id := range s.ActiveSessions() {
			if id == clientID {
				n++
			}
		}
	}
	return n
}

func TestOpenAndStream(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	r.run(time.Second)
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)

	if got := c.State(); got != client.StateWatching {
		t.Fatalf("client state = %v, want watching", got)
	}
	cnt := c.Counters()
	// ~10s at 30fps minus startup; the client must be displaying smoothly.
	if cnt.Displayed < 250 {
		t.Fatalf("displayed %d frames in 10s, want ≥ 250", cnt.Displayed)
	}
	if cnt.GapSkipped != 0 {
		t.Fatalf("skipped %d frames on a loss-free LAN", cnt.GapSkipped)
	}
	if cnt.Stalls > 5 {
		t.Fatalf("%d display stalls on a loss-free LAN", cnt.Stalls)
	}
}

func TestBufferReachesSteadyState(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(25 * time.Second)

	occ := c.Occupancy()
	// §6.1.2: occupancy oscillates between the water marks (54..65
	// combined) once steady.
	if occ.CombinedFrames < 40 || occ.CombinedFrames > 74 {
		t.Fatalf("combined occupancy after 25s = %d, want near water marks", occ.CombinedFrames)
	}
	if occ.HardwareBytes == 0 {
		t.Fatal("hardware buffer empty at steady state")
	}
}

func TestCrashFailover(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second) // let the movie group form

	c := r.startClient("c1", "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(15 * time.Second) // steady state

	// Find and kill the serving server.
	var serving, other string
	for id, s := range r.servers {
		if len(s.ActiveSessions()) == 1 {
			serving = id
		} else {
			other = id
		}
	}
	if serving == "" {
		t.Fatal("no server is serving the client")
	}
	before := c.Counters()
	r.servers[serving].Stop()
	r.net.Crash(transport.Addr(serving))
	r.run(10 * time.Second)

	// The survivor must have taken over.
	if n := len(r.servers[other].ActiveSessions()); n != 1 {
		t.Fatalf("survivor has %d sessions, want 1", n)
	}
	after := c.Counters()
	displayedDuring := after.Displayed - before.Displayed
	// 10s at 30fps = 300 frames; with ~1s irregularity the client should
	// still display the vast majority.
	if displayedDuring < 250 {
		t.Fatalf("displayed only %d frames across the failover", displayedDuring)
	}
	// Takeover re-transmits ≤ one sync period of frames: duplicates are
	// expected ("late"), but bounded.
	lateDuring := after.Late - before.Late
	if lateDuring == 0 {
		t.Log("no duplicate frames at takeover (very fresh sync); acceptable")
	}
	if lateDuring > 40 {
		t.Fatalf("%d late frames at takeover, want ≤ 40 (≈ one sync period + jitter)", lateDuring)
	}
	if r.servingCount("c1") != 1 {
		t.Fatalf("client served by %d servers after failover", r.servingCount("c1"))
	}
}

func TestLoadBalanceMigration(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	c := r.startClient("c1", "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(15 * time.Second)
	if n := len(r.servers["s1"].ActiveSessions()); n != 1 {
		t.Fatalf("s1 has %d sessions before LB, want 1", n)
	}

	// Bring up a fresh server: the newcomer must absorb the client.
	r.startServer("s2")
	r.run(5 * time.Second)

	if n := len(r.servers["s2"].ActiveSessions()); n != 1 {
		t.Fatalf("newcomer s2 has %d sessions after LB, want 1", n)
	}
	if n := len(r.servers["s1"].ActiveSessions()); n != 0 {
		t.Fatalf("s1 still has %d sessions after LB", n)
	}
	if got := r.servers["s1"].Stats().Releases; got != 1 {
		t.Fatalf("s1 releases = %d, want 1", got)
	}
	if got := r.servers["s2"].Stats().Takeovers; got != 1 {
		t.Fatalf("s2 takeovers = %d, want 1", got)
	}
	// Playback must continue across the migration.
	before := c.Counters().Displayed
	r.run(5 * time.Second)
	if got := c.Counters().Displayed - before; got < 130 {
		t.Fatalf("displayed %d frames after migration, want ≥ 130", got)
	}
}

func TestManyClientsBalanced(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("c%d", i)
		c := r.startClient(id, "s1", "s2")
		if err := c.Watch("casablanca"); err != nil {
			t.Fatal(err)
		}
		r.run(100 * time.Millisecond)
	}
	r.run(5 * time.Second)
	for i := 0; i < 6; i++ {
		if n := r.servingCount(fmt.Sprintf("c%d", i)); n != 1 {
			t.Fatalf("client c%d served by %d servers", i, n)
		}
	}
	// Crash one server: all six clients must end up on the survivor.
	r.servers["s1"].Stop()
	r.net.Crash("s1")
	r.run(5 * time.Second)
	if n := len(r.servers["s2"].ActiveSessions()); n != 6 {
		t.Fatalf("survivor has %d sessions, want 6", n)
	}
}

func TestVCRPauseResume(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)

	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	r.run(time.Second) // control + in-flight frames settle
	displayedAtPause := c.Counters().Displayed
	framesSentAtPause := r.servers["s1"].Stats().FramesSent
	r.run(5 * time.Second)
	if got := c.Counters().Displayed; got != displayedAtPause {
		t.Fatalf("displayed %d frames while paused", got-displayedAtPause)
	}
	sentWhilePaused := r.servers["s1"].Stats().FramesSent - framesSentAtPause
	if sentWhilePaused > 2 {
		t.Fatalf("server sent %d frames while paused", sentWhilePaused)
	}

	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if got := c.Counters().Displayed; got < displayedAtPause+100 {
		t.Fatalf("only %d frames displayed after resume", got-displayedAtPause)
	}
}

func TestVCRSeek(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)

	// Jump deep into the movie.
	if err := c.Seek(1200); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	cnt := c.Counters()
	if cnt.Displayed < 200 {
		t.Fatalf("displayed %d frames total after seek", cnt.Displayed)
	}
	// The emergency mechanism must have kicked in on the flushed buffer.
	if c.Stats().EmergenciesSent == 0 {
		t.Fatal("seek did not trigger an emergency request")
	}
	if r.servers["s1"].Stats().Emergencies == 0 {
		t.Fatal("server granted no emergency boost after seek")
	}
}

func TestVCRQuality(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1")
	r.startServer("s1")
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)

	if err := c.SetQuality(10); err != nil { // a third of the frames
		t.Fatal(err)
	}
	r.run(10 * time.Second)
	st := r.servers["s1"].Stats()
	if st.FramesThinned == 0 {
		t.Fatal("quality adjustment thinned no frames")
	}
	// Restore full quality; thinning must stop.
	if err := c.SetQuality(30); err != nil {
		t.Fatal(err)
	}
	r.run(time.Second)
	thinnedAtRestore := r.servers["s1"].Stats().FramesThinned
	r.run(5 * time.Second)
	if got := r.servers["s1"].Stats().FramesThinned; got != thinnedAtRestore {
		t.Fatalf("server kept thinning after quality restore: %d → %d", thinnedAtRestore, got)
	}
}

func TestVCRStopEndsSession(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second)
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if err := c.StopWatching(); err != nil {
		t.Fatal(err)
	}
	r.run(3 * time.Second)
	if n := r.servingCount("c1"); n != 0 {
		t.Fatalf("client still served by %d servers after stop", n)
	}
}

func TestOpenMovieNotHeld(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	// s1 holds no movie; s2 holds it.
	emptyCat := store.NewCatalog()
	s1, err := server.New(server.Config{
		ID: "s1", Clock: r.clk, Network: r.net, Catalog: emptyCat, Peers: r.peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	r.servers["s1"] = s1
	r.startServer("s2")
	r.run(time.Second)

	// Client tries s1 first; the error reply must steer it to s2 quickly.
	c := r.startClient("c1", "s1", "s2")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(3 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("client state = %v, want watching (redirect failed)", got)
	}
	if n := len(r.servers["s2"].ActiveSessions()); n != 1 {
		t.Fatalf("s2 sessions = %d, want 1", n)
	}
}

func TestOpenRetryAfterLostReply(t *testing.T) {
	prof := netsim.LAN()
	r := newRig(t, prof, "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second)

	// Cut the client off from s1 before opening: the first Open dies, the
	// retry reaches s2.
	c := r.startClient("c1", "s1", "s2")
	r.net.SetLinkDown("c1", "s1", true)
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("client state = %v after retry, want watching", got)
	}
	if r.servingCount("c1") != 1 {
		t.Fatalf("client served by %d servers", r.servingCount("c1"))
	}
}

func TestSyncOverheadTiny(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2")
	r.startServer("s1")
	r.startServer("s2")
	r.run(2 * time.Second)
	c := r.startClient("c1", "s1")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(30 * time.Second)

	var video, sync uint64
	for _, s := range r.servers {
		st := s.Stats()
		video += st.VideoBytes
		sync += st.SyncBytes
	}
	if video == 0 {
		t.Fatal("no video transmitted")
	}
	ratio := float64(sync) / float64(video)
	// §1: synchronization consumes "less than one thousandth" of the
	// bandwidth. Allow 2x headroom for the short run.
	if ratio > 0.002 {
		t.Fatalf("sync overhead ratio %.5f, want < 0.002", ratio)
	}
}

func TestSequentialCrashesWithReplication3(t *testing.T) {
	r := newRig(t, netsim.LAN(), "s1", "s2", "s3")
	for _, id := range []string{"s1", "s2", "s3"} {
		r.startServer(id)
	}
	r.run(2 * time.Second)
	c := r.startClient("c1", "s1", "s2", "s3")
	if err := c.Watch("casablanca"); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Second)

	// k=3 replication tolerates 2 sequential failures (§7).
	for _, victim := range []string{"s1", "s2"} {
		before := c.Counters().Displayed
		r.servers[victim].Stop()
		r.net.Crash(transport.Addr(victim))
		delete(r.servers, victim)
		r.run(8 * time.Second)
		if got := c.Counters().Displayed - before; got < 180 {
			t.Fatalf("after crashing %s: displayed %d frames in 8s", victim, got)
		}
		if n := r.servingCount("c1"); n != 1 {
			t.Fatalf("after crashing %s: client served by %d servers", victim, n)
		}
	}
}
