package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// TestChaosRandomCrashSchedules runs randomized crash/add schedules against
// a 3-replica deployment and checks the system invariants the paper's
// design promises:
//
//   - as long as at least one server holding the movie is alive, playback
//     makes progress (replication k tolerates k−1 failures);
//   - after the network and membership settle, the client is served by
//     exactly one server;
//   - no I frame is ever discarded by the overflow policy;
//   - the client never displays frames out of order (enforced inside the
//     buffer pipeline, revalidated here via monotone display counts).
func TestChaosRandomCrashSchedules(t *testing.T) {
	// The eight seeded scenarios are independent clusters: run them through
	// the sweep engine across all cores (the CI race run covers this path),
	// then assert per seed in order.
	type outcome struct {
		res                  *Result
		crash1, crash2, join time.Duration
	}
	outcomes, err := sweep.Run(context.Background(), 8, 0,
		func(i int, seed int64) (outcome, error) {
			rng := rand.New(rand.NewSource(seed))
			names := []string{"server-1", "server-2", "server-3", "server-4"}
			initial := names[:3]
			spare := names[3]

			var events []Event
			// Two random crashes of whoever is serving, at random times,
			// plus a randomly-timed fresh server join.
			crash1 := time.Duration(10+rng.Intn(20)) * time.Second
			crash2 := crash1 + time.Duration(8+rng.Intn(20))*time.Second
			join := time.Duration(5+rng.Intn(60)) * time.Second
			events = append(events,
				Event{At: crash1, Do: func(rt *Runtime) { rt.CrashServing() }},
				Event{At: crash2, Do: func(rt *Runtime) { rt.CrashServing() }},
				Event{At: join, Do: func(rt *Runtime) { rt.AddServer(spare) }},
			)

			prof := netsim.LAN()
			prof.Loss = float64(rng.Intn(3)) / 100 // 0–2% loss
			res := Run(Scenario{
				Name:    fmt.Sprintf("chaos-%d", seed),
				Profile: prof,
				Seed:    seed,
				Servers: initial,
				Peers:   names,
				Events:  events,
				Record:  Serving | Stalls,
			})
			return outcome{res, crash1, crash2, join}, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	for i, oc := range outcomes {
		seed, res := i+1, oc.res
		if res.Final.OverflowDroppedI != 0 {
			t.Errorf("seed %d: discarded %d I frames", seed, res.Final.OverflowDroppedI)
		}
		// Progress: the vast majority of the movie still displays
		// despite two crashes.
		if res.Final.Displayed < 2200 {
			t.Errorf("seed %d: displayed only %d of 2700 frames (crash1=%v crash2=%v join=%v)",
				seed, res.Final.Displayed, oc.crash1, oc.crash2, oc.join)
		}
		// Exactly one serving server at the end of the run.
		if last := res.ServingServer.Last(); last < 0 {
			t.Errorf("seed %d: no serving server at scenario end", seed)
		}
		// Displayed counts are monotone (sampled cumulatively).
		prev := 0.0
		for _, v := range res.StallsCum.Values {
			if v < prev {
				t.Fatalf("seed %d: cumulative stalls decreased: %v -> %v", seed, prev, v)
			}
			prev = v
		}
	}
}

// TestChaosPartitionHeals partitions the serving server away from the
// client mid-movie; the majority side takes over, and after healing the
// system settles back to exactly one server without duplicated streams.
func TestChaosPartitionHeals(t *testing.T) {
	var serving string
	sc := Scenario{
		Name:    "partition",
		Profile: netsim.LAN(),
		Seed:    5,
		Servers: []string{"server-1", "server-2"},
		Events: []Event{
			{At: 15 * time.Second, Do: func(rt *Runtime) {
				serving = rt.ServingServer()
				other := "server-1"
				if serving == "server-1" {
					other = "server-2"
				}
				// Cut the serving server off from both its peer and the
				// client: a true network partition, not a crash.
				rt.Net.Partition(
					[]transport.Addr{transport.Addr(serving)},
					[]transport.Addr{transport.Addr(other), "client-1"},
				)
			}},
			{At: 35 * time.Second, Do: func(rt *Runtime) { rt.Net.Heal() }},
		},
		Record: Serving,
	}
	res := Run(sc)

	// The client kept watching through the partition.
	if res.Final.Displayed < 2300 {
		t.Fatalf("displayed %d frames across a partition", res.Final.Displayed)
	}
	// After healing, there is exactly one serving server (the anti-entropy
	// and merge protocols must have reconciled the split).
	if last := res.ServingServer.Last(); last < 0 {
		t.Fatal("no serving server after heal")
	}
	// The partitioned server kept "serving" its stale session into the
	// void until the heal+merge; afterwards the client must not see a
	// flood of duplicates. Allow the sync-staleness retransmissions of
	// the takeover plus the partitioned server's catch-up burst.
	if res.Final.Late > 700 {
		t.Fatalf("%d late frames; duplicate streams after heal", res.Final.Late)
	}
}

// TestChaosFlappingServer repeatedly crashes and re-adds servers while the
// client watches; playback must survive every transition.
func TestChaosFlappingServer(t *testing.T) {
	var events []Event
	// server-3 joins at 10s, everything serving crashes at 20s, a fresh
	// server-4 joins at 25s, serving crashes again at 40s.
	events = append(events,
		Event{At: 10 * time.Second, Do: func(rt *Runtime) { rt.AddServer("server-3") }},
		Event{At: 20 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
		Event{At: 25 * time.Second, Do: func(rt *Runtime) { rt.AddServer("server-4") }},
		Event{At: 40 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
	)
	res := Run(Scenario{
		Name:    "flapping",
		Profile: netsim.LAN(),
		Seed:    9,
		Servers: []string{"server-1", "server-2"},
		Peers:   []string{"server-1", "server-2", "server-3", "server-4"},
		Events:  events,
		Record:  Serving,
	})
	if res.Final.Displayed < 2300 {
		t.Fatalf("displayed %d frames through the flapping", res.Final.Displayed)
	}
	if res.Final.Stalls > 60 {
		t.Fatalf("%d stalls through the flapping", res.Final.Stalls)
	}
	if last := res.ServingServer.Last(); last < 0 {
		t.Fatal("no serving server at the end")
	}
}
