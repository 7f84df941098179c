package sim

import (
	"testing"
	"time"

	"repro/internal/mpeg"
	"repro/internal/netsim"
)

// TestObsCountersLANCrash asserts the observability layer's account of
// the Figure 4a scenario: the crash at 39s causes exactly one takeover
// (the surviving replica adopts the client), and the load-balance server
// added at 63s causes exactly one more (the newcomer-first deal). The
// counters are deterministic for a fixed seed.
func TestObsCountersLANCrash(t *testing.T) {
	res := Run(LANScenario(1))

	var takeovers, viewChanges, opens uint64
	for node, reg := range res.Obs {
		takeovers += reg.Value("server.takeovers")
		viewChanges += reg.Value("gcs.view_changes")
		if node != "net" {
			opens += reg.Value("server.sessions_opened")
		}
	}
	if takeovers != 2 {
		t.Errorf("total server.takeovers = %d, want 2 (crash takeover + load-balance migration)", takeovers)
	}
	if opens != 1 {
		t.Errorf("server.sessions_opened = %d, want 1", opens)
	}
	if viewChanges == 0 {
		t.Error("no gcs.view_changes counted anywhere; the view-install hook is dead")
	}

	// The crashed server must not have taken anything over, and the
	// survivor must have registered the crash as a view change.
	if reg, ok := res.Obs["server-1"]; !ok {
		t.Fatal("no registry retained for the crashed server")
	} else if got := reg.Value("server.takeovers"); got != 0 {
		t.Errorf("crashed server counts %d takeovers", got)
	}
	if got := res.Obs["server-2"].Value("server.takeovers"); got != 1 {
		t.Errorf("surviving server takeovers = %d, want 1", got)
	}
	if got := res.Obs["server-3"].Value("server.takeovers"); got != 1 {
		t.Errorf("load-balance server takeovers = %d, want 1", got)
	}

	// The network pseudo-node traced the fault injection, stamped in
	// virtual time.
	crashAt := fig4CrashAt
	var sawCrash bool
	for _, ev := range res.Obs["net"].Snapshot().Events() {
		if ev.Kind == "netsim.crash" && ev.Note == "server-1" {
			sawCrash = true
			if got := ev.At.Sub(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)); got != crashAt {
				t.Errorf("crash event at %v of scenario time, want %v", got, crashAt)
			}
		}
	}
	if !sawCrash {
		t.Error("netsim.crash event for server-1 missing from the net trace")
	}

	// The client's frame counter must agree with the buffer pipeline's
	// own accounting.
	if got, want := res.Obs["client-1"].Value("client.frames_received"), res.Final.Received; got != want {
		t.Errorf("client.frames_received = %d, buffer counted %d", got, want)
	}
}

// TestCrashedServerReportsNoSessions: a crashed server holds no sessions, and
// its registry says so, both while its survivor serves the client and after
// the run. Stop empties the session table, which is what the registry reads.
func TestCrashedServerReportsNoSessions(t *testing.T) {
	sc := LANScenario(1)
	crashAt, lbAt := fig4CrashAt, fig4LBAt
	var mid [2]int64
	sc.Events = append(sc.Events, Event{At: (crashAt + lbAt) / 2, Do: func(rt *Runtime) {
		mid[0] = rt.registry("server-1").Snapshot().Gauges["server.active_sessions"]
		mid[1] = rt.registry("server-2").Snapshot().Gauges["server.active_sessions"]
	}})
	res := Run(sc)
	if mid != [2]int64{0, 1} {
		t.Errorf("between the crash and the load balance, server-1 and server-2 report %v active sessions, want [0 1]", mid)
	}
	if got := res.Obs["server-1"].Snapshot().Gauges["server.active_sessions"]; got != 0 {
		t.Errorf("crashed server-1 reports %d active sessions at the end of the run, want 0", got)
	}
}

// TestObsSnapshotsDeterministic runs the same scenario twice and expects
// identical counter snapshots — the property that makes the obs layer
// usable in regression assertions.
func TestObsSnapshotsDeterministic(t *testing.T) {
	a := Run(LANScenario(7))
	b := Run(LANScenario(7))
	if len(a.Obs) != len(b.Obs) {
		t.Fatalf("node sets differ: %d vs %d", len(a.Obs), len(b.Obs))
	}
	for node, ra := range a.Obs {
		rb, ok := b.Obs[node]
		if !ok {
			t.Fatalf("run B lost node %q", node)
		}
		sa, sb := ra.Snapshot(), rb.Snapshot()
		for name, va := range sa.Counters {
			if vb := sb.Counters[name]; vb != va {
				t.Errorf("%s %s: %d vs %d across identical runs", node, name, va, vb)
			}
		}
		if len(sa.Records) != len(sb.Records) {
			t.Errorf("%s: %d vs %d trace records across identical runs", node, len(sa.Records), len(sb.Records))
		}
	}
}

// TestObsScopedPerNode ensures two servers in one process do not share
// counters — the per-node scoping requirement.
func TestObsScopedPerNode(t *testing.T) {
	res := Run(Scenario{
		Name:    "scoping",
		Profile: netsim.LAN(),
		Seed:    1,
		Servers: []string{"server-1", "server-2"},
		Movie:   mpeg.StreamConfig{Duration: 20 * time.Second},
	})
	s1 := res.Obs["server-1"].Value("server.frames_sent")
	s2 := res.Obs["server-2"].Value("server.frames_sent")
	if s1+s2 == 0 {
		t.Fatal("no frames counted on either server")
	}
	// Exactly one server holds the single client's session; the other's
	// frame counter must stay at zero.
	if s1 != 0 && s2 != 0 {
		t.Errorf("both servers counted frames (%d, %d); counters are not node-scoped", s1, s2)
	}
}
