package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestAllocsPerInstalledView pins what a view change costs. Three servers
// share the movie group, the viewer's session group rides on top, and a
// fixed script takes them through the events the paper's guarantee is made
// of: the serving server crashes (twice), a crashed one cold-restarts and
// rejoins (twice), the network splits and heals. Every one of those is a
// flush and an install at every surviving member of every group, and each
// install's state is a few rank-indexed slices re-sliced from the previous
// view's storage. The whole run is charged to its installs — cluster set-up
// and state sync included — and measures 44 mallocs per view; the ceiling is
// that plus 15 %. It measured 53 while each view-change message (propose,
// sync report, cut, cut-done, install, NAK, presence relay) was framed in a
// fresh buffer, each decoded presence, cut and NAK was a fresh envelope, and
// an install copied its member list; 56 when this test was written, and 58
// while each Open, state message and control message was deferred through a
// zero-delay timer.
// Per-view state built as maps keyed by process ID and thrown away at the next
// install measured 100 on the same script.
func TestAllocsPerInstalledView(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const ceiling = 51 // mallocs per installed view
	servers := []string{"server-1", "server-2", "server-3"}
	restart := func(id string) func(*sim.Runtime) {
		return func(rt *sim.Runtime) {
			if err := rt.RestartServer(id); err != nil {
				t.Errorf("restart %s: %v", id, err)
			}
		}
	}
	var crashed string
	crashServing := func(rt *sim.Runtime) {
		crashed = rt.Deployment.ServingServer("client-1")
		if !rt.CrashServing() {
			t.Error("nobody was serving the viewer at the scripted crash")
		}
	}
	restartCrashed := func(rt *sim.Runtime) { restart(crashed)(rt) }
	feature := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 60 * time.Second})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sim.Run(sim.Scenario{
		Name:    "view churn",
		Profile: netsim.LAN(),
		Seed:    1,
		Feature: feature,
		Servers: servers,
		Events: []sim.Event{
			{At: 8 * time.Second, Do: crashServing},
			{At: 14 * time.Second, Do: restartCrashed},
			{At: 24 * time.Second, Do: func(rt *sim.Runtime) { rt.Partition(servers[:1], servers[1:]) }},
			{At: 32 * time.Second, Do: func(rt *sim.Runtime) { rt.HealNetwork() }},
			{At: 40 * time.Second, Do: crashServing},
			{At: 46 * time.Second, Do: restartCrashed},
		},
	})
	runtime.ReadMemStats(&after)

	var views uint64
	for _, reg := range res.Obs {
		views += reg.Value("gcs.view_changes")
	}
	if views < 30 {
		t.Fatalf("the script installed %d views, want at least 30: it no longer exercises view churn", views)
	}
	perView := (after.Mallocs - before.Mallocs) / views
	t.Logf("%d views installed, %d mallocs in the run, %d per view", views, after.Mallocs-before.Mallocs, perView)
	if perView > ceiling {
		t.Errorf("%d mallocs per installed view, want <= %d", perView, ceiling)
	}
}
