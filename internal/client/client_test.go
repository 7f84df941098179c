package client_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	clk   *clock.Virtual
	net   *netsim.Network
	movie *mpeg.Movie
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	return &rig{
		clk: clk,
		net: netsim.New(clk, 9, netsim.LAN()),
		movie: mpeg.Generate("feature", mpeg.StreamConfig{
			Duration: 20 * time.Second,
			Seed:     2,
		}),
	}
}

func (r *rig) server(t *testing.T, id string, peers ...string) *server.Server {
	t.Helper()
	cat := store.NewCatalog()
	cat.Add(r.movie)
	s, err := server.New(server.Config{
		ID: id, Clock: r.clk, Network: r.net, Catalog: cat, Peers: peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func (r *rig) client(t *testing.T, id string, servers ...string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		ID: id, Clock: r.clk, Network: r.net, Servers: servers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t)
	cases := []client.Config{
		{Clock: r.clk, Network: r.net, Servers: []string{"s"}}, // no ID
		{ID: "c", Network: r.net, Servers: []string{"s"}},      // no clock
		{ID: "c", Clock: r.clk, Servers: []string{"s"}},        // no network
		{ID: "c", Clock: r.clk, Network: r.net},                // no servers
	}
	for i, cfg := range cases {
		if _, err := client.New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStateMachine(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")

	if got := c.State(); got != client.StateIdle {
		t.Fatalf("initial state = %v", got)
	}
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	if err := c.Watch("feature"); err == nil {
		t.Fatal("second Watch accepted")
	}
	r.clk.Advance(2 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("state after open = %v", got)
	}
	// Counters and occupancy are live.
	if c.Counters().Displayed == 0 {
		t.Fatal("nothing displayed after 2s")
	}
}

func TestFinishesAtMovieEnd(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	// Movie is 20s; allow slack for startup and rate dynamics.
	r.clk.Advance(30 * time.Second)
	if got := c.State(); got != client.StateFinished {
		t.Fatalf("state at movie end = %v, want finished", got)
	}
	cnt := c.Counters()
	if cnt.Displayed+cnt.Skipped() < uint64(r.movie.TotalFrames()) {
		t.Fatalf("displayed %d + skipped %d < %d total",
			cnt.Displayed, cnt.Skipped(), r.movie.TotalFrames())
	}
	// No stall spam after the end.
	stalls := cnt.Stalls
	r.clk.Advance(5 * time.Second)
	if got := c.Counters().Stalls; got != stalls {
		t.Fatalf("stalls kept counting after the movie ended: %d → %d", stalls, got)
	}
}

func TestOpenRetriesAcrossServers(t *testing.T) {
	r := newRig(t)
	// "ghost" was never started; the client must fall through to s1.
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "ghost", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	if got := c.State(); got != client.StateWatching {
		t.Fatalf("state = %v after retrying past a dead server", got)
	}
	if got := c.Stats().OpensSent; got < 2 {
		t.Fatalf("OpensSent = %d, want ≥ 2 (one retry)", got)
	}
}

func TestUnknownMovie(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("no-such-movie"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(3 * time.Second)
	// The server keeps answering "not found"; the client keeps trying
	// (there might be another server later) but never reaches watching.
	if got := c.State(); got != client.StateOpening {
		t.Fatalf("state = %v, want still opening", got)
	}
}

func TestVCRBeforeOpenFails(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Pause(); err == nil {
		t.Fatal("Pause before Watch succeeded")
	}
	if err := c.Seek(100); err == nil {
		t.Fatal("Seek before Watch succeeded")
	}
}

func TestFlowControlEmission(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Second)
	st := c.Stats()
	if st.FlowSent == 0 {
		t.Fatal("no flow-control requests sent in 10s of playback")
	}
	if st.EmergenciesSent == 0 {
		t.Fatal("startup (empty buffers) sent no emergency request")
	}
}

func TestPauseFreezesCounters(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Second) // drain in-flight frames
	displayed := c.Counters().Displayed
	r.clk.Advance(10 * time.Second)
	if got := c.Counters().Displayed; got != displayed {
		t.Fatalf("displayed while paused: %d → %d", displayed, got)
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(3 * time.Second)
	if got := c.Counters().Displayed; got <= displayed {
		t.Fatal("nothing displayed after resume")
	}
}

func TestStopWatching(t *testing.T) {
	r := newRig(t)
	srv := r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	if err := c.StopWatching(); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != client.StateStopped {
		t.Fatalf("state = %v", got)
	}
	r.clk.Advance(2 * time.Second)
	if got := len(srv.ActiveSessions()); got != 0 {
		t.Fatalf("server still has %d sessions after stop", got)
	}
	if err := c.Pause(); err == nil {
		t.Fatal("VCR op after StopWatching succeeded")
	}
}

func TestCloseDuringWatch(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(3 * time.Second)
	c.Close()
	// The simulation must keep running cleanly; the server eventually
	// notices the silent client via its session-group failure detector.
	r.clk.Advance(5 * time.Second)
}

// TestCloseIsFinal: Close ends every open cycle, and a closed client stays
// closed. A directory-only client closed while its first resolution is in
// flight reports stopped and goes quiet: it neither re-asks the directory
// nor leaves a clock event behind. A client stopped with StopWatching may
// watch again; once closed, it may not.
func TestCloseIsFinal(t *testing.T) {
	r := newRig(t)
	c, err := client.New(client.Config{
		ID: "c1", Clock: r.clk, Network: r.net, Directory: "directory",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * time.Second)
	c.Close()
	r.clk.Advance(30 * time.Second)
	if got := c.State(); got != client.StateStopped {
		t.Fatalf("state 30s after Close while opening = %v, want stopped", got)
	}
	if r.clk.Step() {
		t.Fatal("a clock event is still pending 30s after Close")
	}

	r.server(t, "s1", "s1")
	v := r.client(t, "c2", "s1")
	if err := v.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(3 * time.Second)
	if err := v.StopWatching(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * time.Second) // let the session group's leave complete
	if err := v.Watch("feature"); err != nil {
		t.Fatalf("Watch after StopWatching: %v", err)
	}
	r.clk.Advance(3 * time.Second)
	if got := v.State(); got != client.StateWatching {
		t.Fatalf("state after re-Watch = %v, want watching", got)
	}
	v.Close()
	if err := v.Watch("feature"); err == nil {
		t.Fatal("Watch after Close succeeded")
	}
}

func TestSeekFlushesAndRefills(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	c := r.client(t, "c1", "s1")
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(8 * time.Second)
	emergenciesBefore := c.Stats().EmergenciesSent
	if err := c.Seek(450); err != nil {
		t.Fatal(err)
	}
	// The flush is immediate.
	if occ := c.Occupancy().CombinedFrames; occ != 0 {
		t.Fatalf("occupancy right after seek = %d, want 0", occ)
	}
	r.clk.Advance(4 * time.Second)
	if got := c.Stats().EmergenciesSent; got <= emergenciesBefore {
		t.Fatal("seek did not trigger an emergency request")
	}
	if occ := c.Occupancy().CombinedFrames; occ < 20 {
		t.Fatalf("buffers did not refill after seek: %d frames", occ)
	}
}

// TestBackwardSeekIgnoresStaleFrames: after a backward Seek, frames of the
// old position are still in flight. Buffering one would count every frame
// between the Seek target and it as a gap and jump playback forward, undoing
// the Seek; they must be dropped until the stream from the new position
// arrives.
func TestBackwardSeekIgnoresStaleFrames(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	reg := obs.NewRegistry("c1", r.clk.Now)
	c, err := client.New(client.Config{
		ID: "c1", Clock: r.clk, Network: r.net, Servers: []string{"s1"}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Watch(r.movie.ID()); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(12 * time.Second)
	before := c.Counters()
	// Hold the Seek on the client's uplink for half a second, so the old
	// position's frames keep arriving after the local flush.
	r.net.SetLinkOneWayDown("c1", "s1", true)
	if err := c.Seek(30); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(500 * time.Millisecond)
	r.net.SetLinkOneWayDown("c1", "s1", false)
	r.clk.Advance(4 * time.Second)
	after := c.Counters()
	if skipped := after.GapSkipped - before.GapSkipped; skipped > 30 {
		t.Errorf("backward seek skipped %d frames: playback jumped forward to the old position", skipped)
	}
	if shown := after.Displayed - before.Displayed; shown < 60 {
		t.Errorf("displayed %d frames in the 4s after the seek", shown)
	}
	if reg.Snapshot().Counters["client.stray_frames"] == 0 {
		t.Error("no in-flight frame of the old position was dropped")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[client.State]string{
		client.StateIdle:     "idle",
		client.StateOpening:  "opening",
		client.StateWatching: "watching",
		client.StateFinished: "finished",
		client.StateStopped:  "stopped",
		client.State(99):     "State(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestJitterEstimator: a jittery WAN path must show materially more
// inter-arrival jitter than a quiet LAN.
func TestJitterEstimator(t *testing.T) {
	measure := func(prof netsim.Profile) time.Duration {
		clk := clock.NewVirtual(epoch)
		net := netsim.New(clk, 3, prof)
		movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 20 * time.Second, Seed: 2})
		cat := store.NewCatalog()
		cat.Add(movie)
		s, err := server.New(server.Config{
			ID: "s1", Clock: clk, Network: net, Catalog: cat, Peers: []string{"s1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		c, err := client.New(client.Config{ID: "c1", Clock: clk, Network: net, Servers: []string{"s1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(15 * time.Second)
		return c.Jitter()
	}

	lan := measure(netsim.LAN())
	wan := measure(netsim.WAN())
	t.Logf("jitter: LAN=%v WAN=%v", lan, wan)
	if lan > 2*time.Millisecond {
		t.Errorf("LAN jitter = %v, want ≈ 0", lan)
	}
	if wan < 2*lan+time.Millisecond {
		t.Errorf("WAN jitter (%v) not clearly above LAN (%v)", wan, lan)
	}
}

// TestOpenRetryBackoff: against a service that never answers, the Open
// anycast must back off exponentially (capped) instead of hammering every
// second. In 40 simulated seconds the fixed-1s schedule would fire ~40
// opens; the capped-backoff schedule fires well under a dozen.
func TestOpenRetryBackoff(t *testing.T) {
	r := newRig(t)
	// Bind the server address but run no server: opens vanish into it.
	if _, err := r.net.NewEndpoint("s1"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("c1", r.clk.Now)
	c, err := client.New(client.Config{
		ID: "c1", Clock: r.clk, Network: r.net, Servers: []string{"s1"}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Watch(r.movie.ID()); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(40 * time.Second)

	st := c.Stats()
	if st.OpensSent < 5 || st.OpensSent > 12 {
		t.Errorf("OpensSent = %d over 40s; want 5..12 (capped backoff)", st.OpensSent)
	}
	if st.OpenRetries != st.OpensSent-1 {
		t.Errorf("OpenRetries = %d, OpensSent = %d; every open but the first is a retry",
			st.OpenRetries, st.OpensSent)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["client.open_retries"]; got != st.OpenRetries {
		t.Errorf("client.open_retries counter = %d, stats say %d", got, st.OpenRetries)
	}
	if got := c.State(); got != client.StateOpening {
		t.Errorf("state = %v, still opening expected", got)
	}
}

// TestReopenAfterLinkLoss: the client loses its only server mid-movie to a
// (bidirectional) link failure longer than starveTimeout. It must notice
// the starvation, count a reopen, and resume playback when the link heals.
func TestReopenAfterLinkLoss(t *testing.T) {
	r := newRig(t)
	r.server(t, "s1", "s1")
	reg := obs.NewRegistry("c1", r.clk.Now)
	c, err := client.New(client.Config{
		ID: "c1", Clock: r.clk, Network: r.net, Servers: []string{"s1"}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Watch(r.movie.ID()); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5 * time.Second)
	beforeCut := c.Counters().Displayed
	if beforeCut == 0 {
		t.Fatal("no frames displayed before the cut")
	}

	r.net.SetLinkDown("c1", "s1", true)
	r.clk.Advance(10 * time.Second)
	if got := c.Stats().Reopens; got == 0 {
		t.Fatal("client never reopened across a 10s link outage")
	}
	atHeal := c.Counters().Displayed

	r.net.SetLinkDown("c1", "s1", false)
	r.clk.Advance(10 * time.Second)
	after := c.Counters().Displayed
	if after <= atHeal {
		t.Fatalf("playback did not resume after heal: %d -> %d displayed", atHeal, after)
	}
	if got := reg.Snapshot().Counters["client.reopens"]; got != c.Stats().Reopens {
		t.Errorf("client.reopens counter = %d, stats say %d", got, c.Stats().Reopens)
	}
	// The starvation window plus recovery costs display continuity but not
	// correctness: no I frame may be dropped by overflow.
	if got := c.Counters().OverflowDroppedI; got != 0 {
		t.Errorf("%d I frames dropped on overflow across the outage", got)
	}
}

// TestReopenFollowsSessionView: a client cut off from the whole cluster for
// long enough that its Open backoff reaches the cap must reopen as soon as
// the healed network re-forms its session view with the serving server —
// not whenever its rotation over the bootstrap list, where dead and
// never-started servers come first, happens to reach that server again.
func TestReopenFollowsSessionView(t *testing.T) {
	r := newRig(t)
	r.movie = mpeg.Generate("feature", mpeg.StreamConfig{Duration: 90 * time.Second, Seed: 2})
	r.server(t, "s1", "s1")
	// s0 and s2 are in the client's list but never run: Opens to them vanish.
	for _, id := range []string{"s0", "s2"} {
		if _, err := r.net.NewEndpoint(transport.Addr(id)); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry("c1", r.clk.Now)
	c, err := client.New(client.Config{
		ID: "c1", Clock: r.clk, Network: r.net, Servers: []string{"s1", "s0", "s2"}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Watch(r.movie.ID()); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Second)

	r.net.SetLinkDown("c1", "s1", true)
	r.clk.Advance(25 * time.Second)
	if got := c.Stats().OpenRetries; got < 4 {
		t.Fatalf("%d Open retries during the cut; the backoff never reached its cap", got)
	}
	healed := r.clk.Now()
	r.net.SetLinkDown("c1", "s1", false)
	r.clk.Advance(20 * time.Second)

	var viewAt, reopenAt time.Time
	for _, ev := range reg.Snapshot().Events() {
		if ev.At.Before(healed) {
			continue
		}
		switch {
		case viewAt.IsZero() && ev.Kind == "gcs.view" &&
			strings.HasPrefix(ev.Note, wire.SessionGroup("c1")+" ") && strings.HasSuffix(ev.Note, "members=2"):
			viewAt = ev.At
		case reopenAt.IsZero() && ev.Kind == "client.reopen_ok":
			reopenAt = ev.At
		}
	}
	if viewAt.IsZero() {
		t.Fatal("the session view never re-formed with the server after the heal")
	}
	if reopenAt.IsZero() {
		t.Fatal("no reopen succeeded within 20s of the heal")
	}
	if wait := reopenAt.Sub(viewAt); wait > time.Second {
		t.Errorf("reopen_ok %v after the session view re-formed with s1, want within 1s", wait)
	}
}
