package sim

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestRestartServerRefetches exercises the cold-restart path: the serving
// server crashes at 20s, its peer takes the session over, and at 30s the
// crashed server restarts with an empty catalog. It must re-fetch the movie
// from its peer over the fetch protocol, rejoin the movie group, and — being
// the newcomer in the redistribution deal — win the session back. Counters
// are exact for a fixed seed, as in obs_test.go.
func TestRestartServerRefetches(t *testing.T) {
	res := Run(Scenario{
		Name:    "restart",
		Profile: netsim.LAN(),
		Seed:    1,
		Servers: []string{"server-1", "server-2"},
		Record:  Serving,
		Events: []Event{
			{At: 20 * time.Second, Label: "crash", Do: func(rt *Runtime) { rt.CrashServing() }},
			{At: 30 * time.Second, Label: "restart", Do: func(rt *Runtime) {
				if err := rt.RestartServer("server-1"); err != nil {
					t.Errorf("RestartServer: %v", err)
				}
			}},
		},
	})

	// The restarted server held no movies: it must have pulled exactly one
	// over the wire, in more than zero chunk requests, served by its peer.
	s1 := res.Obs["server-1"].Snapshot()
	if got := s1.Counters["fetch.movies_fetched"]; got != 1 {
		t.Errorf("restarted server fetch.movies_fetched = %d, want 1", got)
	}
	if got := s1.Counters["fetch.requests_sent"]; got == 0 {
		t.Error("restarted server sent no fetch requests")
	}
	if got := res.Obs["server-2"].Value("fetch.chunks_served"); got == 0 {
		t.Error("surviving peer served no fetch chunks")
	}

	// Exactly two takeovers: the crash failover onto server-2, then the
	// newcomer-first migration back onto the restarted server-1.
	if got := res.Obs["server-2"].Value("server.takeovers"); got != 1 {
		t.Errorf("surviving server takeovers = %d, want 1 (crash failover)", got)
	}
	if got := s1.Counters["server.takeovers"]; got != 1 {
		t.Errorf("restarted server takeovers = %d, want 1 (newcomer migration)", got)
	}

	// At scenario end the restarted server is the one serving the client.
	last := res.ServingServer.Values[len(res.ServingServer.Values)-1]
	if last != 0 { // index 0 = "server-1" in sorted peer order
		t.Errorf("final serving server index = %v, want 0 (server-1)", last)
	}

	// The failover and the migration were both invisible enough that the
	// client never starved into a reopen, and no I frame was dropped.
	if res.ClientStats.Reopens != 0 {
		t.Errorf("client reopened %d times; takeover should not starve it", res.ClientStats.Reopens)
	}
	if res.Final.OverflowDroppedI != 0 {
		t.Errorf("%d I frames dropped on overflow", res.Final.OverflowDroppedI)
	}

	// Lifetime stats merge across incarnations: both incarnations of
	// server-1 sent frames, and the merged total reflects the first one's
	// pre-crash streaming plus the second one's post-migration streaming.
	if st := res.ServerStats["server-1"]; st.FramesSent == 0 || st.SessionsOpened != 1 {
		t.Errorf("merged server-1 stats = %+v; want FramesSent > 0 and SessionsOpened == 1", st)
	}
}

// TestClientSurvivesFullPartition cuts the client off from the entire
// cluster — the fault no server-side failover can mask. The client must
// starve, re-anycast the Open with backoff until the partition heals, and
// resume playback from where it stopped (the reopen's Seek rewinds the
// server; frames the old stream fired into the void must not fast-forward
// playback past the gap).
func TestClientSurvivesFullPartition(t *testing.T) {
	var reopens uint64
	res := Run(Scenario{
		Name:     "client-partition",
		Profile:  netsim.LAN(),
		Seed:     1,
		Servers:  []string{"server-1", "server-2"},
		Duration: 120 * time.Second,
		Events: []Event{
			{At: 20 * time.Second, Label: "partition", Do: func(rt *Runtime) {
				rt.Partition([]string{"client-1"}, []string{"server-1", "server-2"})
			}},
			{At: 30 * time.Second, Label: "heal", Do: func(rt *Runtime) {
				rt.HealNetwork()
			}},
		},
	})
	reopens = res.ClientStats.Reopens

	if reopens == 0 {
		t.Fatal("client never reopened across a 10s total partition")
	}
	snap := res.Obs["client-1"].Snapshot()
	if got := snap.Counters["client.reopens"]; got != reopens {
		t.Errorf("client.reopens counter = %d, stats say %d", got, reopens)
	}
	var sawReopen, sawReopenOK bool
	for _, ev := range snap.Events() {
		switch ev.Kind {
		case "client.reopen":
			sawReopen = true
		case "client.reopen_ok":
			sawReopenOK = true
		}
	}
	if !sawReopen || !sawReopenOK {
		t.Errorf("reopen trace incomplete: reopen=%v reopen_ok=%v", sawReopen, sawReopenOK)
	}

	// Playback resumed after the heal and ran the movie essentially to the
	// end; the ten partitioned seconds delayed, not destroyed, the stream.
	if res.Final.Displayed < 2600 {
		t.Errorf("displayed %d frames of 2700 (gap-skipped %d); playback did not resume",
			res.Final.Displayed, res.Final.GapSkipped)
	}
	if res.Final.OverflowDroppedI != 0 {
		t.Errorf("%d I frames dropped on overflow", res.Final.OverflowDroppedI)
	}
	if res.Final.Stalls == 0 {
		t.Error("a 10s partition produced zero stalls; the fault never bit")
	}
}
