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
// view's storage, made at Join for the view the member's contacts imply. The
// flush's proposal and its reports, carved by rank from one backing per
// attempt size, live in storage the members already hold; its messages are
// decoded into one envelope per kind under the process lock and framed in one
// scratch per process; the install allocates its member list once, and both
// the movie group and the session group hand the view to the server through a
// queue, not a closure. Timers and beats arm their owners as clock Runners.
// The whole run is charged to its installs, cluster set-up and state sync
// included: 1,185-1,193 mallocs over 67 views, 17.7-17.8 per view at
// GOMAXPROCS 1-8. The ceiling is that plus 15 %. With a closure per session
// view and a method value bound per timer owner, as before, it measured
// 1,344-1,352 (20.1-20.2 per view), inside the ceiling; the clock's and
// netsim's alloc tests and the benchmark budgets pin that difference. Growing each report's lists per
// rank and rebuilding the multicast state at the first real install measured
// 1,480-1,488 (22.1-22.2 per view): gcs's TestFreshGroupFirstViewAllocs pins
// that one.
func TestAllocsPerInstalledView(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const ceiling = 20.5 // mallocs per installed view
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
	perView := float64(after.Mallocs-before.Mallocs) / float64(views)
	t.Logf("%d views installed, %d mallocs in the run, %.2f per view", views, after.Mallocs-before.Mallocs, perView)
	if perView > ceiling {
		t.Errorf("%.2f mallocs per installed view, want <= %v", perView, ceiling)
	}
}
