package sim

import (
	"time"

	"repro/internal/netsim"
)

// Timing of the paper's two evaluation scenarios (§6.1, §6.2). The client
// opens the movie at t=1s; event offsets below match the paper's narrative
// relative to the start of the movie.
const (
	// Figure 4 (LAN): "Approximately 38 seconds after the movie began, the
	// server transmitting this movie was terminated ... Approximately 24
	// seconds later, a new server was brought up and the client was
	// migrated to it for load balancing purposes."
	fig4CrashAt = 39 * time.Second // 1s open + 38s
	fig4LBAt    = 63 * time.Second // 24s later

	// Figure 5 (WAN): "Approximately 25 seconds after the movie began, a
	// new server was brought up and the client was migrated to it ...
	// Approximately 22 seconds later, the server transmitting this movie
	// was terminated."
	fig5LBAt    = 26 * time.Second
	fig5CrashAt = 48 * time.Second
)

// LANScenario reproduces the Figure 4 experiment: a client on a switched
// Ethernet LAN watching a 90-second, 1.4 Mbps movie; the serving server
// crashes at ~38s; a fresh server is brought up ~24s later and the client
// migrates to it for load balancing.
func LANScenario(seed int64) Scenario {
	return Scenario{
		Name:    "fig4-lan",
		Profile: netsim.LAN(),
		Seed:    seed,
		Servers: []string{"server-1", "server-2"},
		Peers:   []string{"server-1", "server-2", "server-3"},
		Events: []Event{
			{At: fig4CrashAt, Label: "crash", Do: func(rt *Runtime) { rt.CrashServing() }},
			{At: fig4LBAt, Label: "load balance", Do: func(rt *Runtime) { rt.AddServer("server-3") }},
		},
	}
}

// WANScenario reproduces the Figure 5 experiment: the same client behavior
// over a 7-hop Internet path without QoS reservation (delay, jitter-induced
// reordering and sporadic loss); a new server is brought up at ~25s (load
// balancing) and the serving server is terminated ~22s later.
func WANScenario(seed int64) Scenario {
	return Scenario{
		Name:    "fig5-wan",
		Profile: netsim.WAN(),
		Seed:    seed,
		Servers: []string{"server-1", "server-2"},
		Peers:   []string{"server-1", "server-2", "server-3"},
		Events: []Event{
			{At: fig5LBAt, Label: "load balance", Do: func(rt *Runtime) { rt.AddServer("server-3") }},
			{At: fig5CrashAt, Label: "crash", Do: func(rt *Runtime) { rt.CrashServing() }},
		},
	}
}

// TakeoverTrial runs one crash-failover and returns how long the client
// was without a serving server (Table T: "the take over time was half a
// second on the average" on a LAN). The crash instant varies with the
// seed so trials sample different phases of the heartbeat and sync cycles.
func TakeoverTrial(seed int64) time.Duration {
	crashAt := 20*time.Second + time.Duration(seed*137%500)*time.Millisecond
	sc := Scenario{
		Name:        "takeover",
		Profile:     netsim.LAN(),
		Seed:        seed,
		Servers:     []string{"server-1", "server-2"},
		Duration:    40 * time.Second,
		Record:      Serving,
		SampleEvery: 10 * time.Millisecond, // fine-grained for the gap
		Events: []Event{
			{At: crashAt, Do: func(rt *Runtime) { rt.CrashServing() }},
		},
	}
	res := Run(sc)
	// Find the gap in the serving-server series around the crash.
	var gapStart, gapEnd time.Duration
	inGap := false
	for i, v := range res.ServingServer.Values {
		t := res.ServingServer.Time(i)
		if t < 19*time.Second {
			continue
		}
		if v < 0 && !inGap {
			inGap = true
			gapStart = t
		}
		if v >= 0 && inGap {
			gapEnd = t
			break
		}
	}
	if !inGap || gapEnd == 0 {
		return 0
	}
	return gapEnd - gapStart
}
