// UDP LAN: the same servers and client running over real UDP sockets on
// the loopback interface with the real clock — no simulation. Two servers
// stream a short movie; mid-stream, the serving server is stopped and
// the survivor takes the client over, exactly as in the simulated runs.
//
// This example runs in real time (about 11 seconds).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/transport"
)

func main() {
	const viewerID = "127.0.0.1:18710"
	movie := core.GenerateMovie("short-feature", 30*time.Second, 1)
	deployment, err := core.Deploy(core.DeployOptions{
		Clock:   clock.Real{},
		Network: transport.UDPNetwork{},
		Servers: []string{"127.0.0.1:18701", "127.0.0.1:18702"},
		Movies:  []*core.Movie{movie},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Stop()
	time.Sleep(time.Second) // let the server group form over loopback

	viewer, err := deployment.NewClient(viewerID)
	if err != nil {
		log.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Watch(movie.ID()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("streaming", movie, "over real UDP on loopback")

	report := func(from, to int) {
		for i := from; i < to; i++ {
			time.Sleep(time.Second)
			c := viewer.Counters()
			fmt.Printf("t=%2ds  displayed=%-4d buffered=%-3d skipped=%-2d served-by=%s\n",
				i+1, c.Displayed, viewer.Occupancy().CombinedFrames, c.Skipped(), deployment.ServingServer(viewerID))
		}
	}
	report(0, 6)

	victim := deployment.ServingServer(viewerID)
	fmt.Printf("\nstopping %s mid-stream ...\n\n", victim)
	before := viewer.Counters()
	deployment.StopServer(victim)
	report(6, 10)

	// Claim the failover only when the counters show it. Real-clock timer
	// jitter allows a short hiccup; a freeze beyond one second (30 ticks)
	// means the takeover failed.
	c := viewer.Counters()
	survivor := deployment.ServingServer(viewerID)
	fmt.Printf("\nfinal: displayed=%d late=%d skipped=%d stalls=%d longest-stall=%d ticks\n",
		c.Displayed, c.Late, c.Skipped(), c.Stalls, c.MaxStallRun)
	switch {
	case victim == "" || survivor == "" || survivor == victim:
		log.Fatalf("failover did not hold: served by %q after stopping %q", survivor, victim)
	case len(deployment.Server(survivor).ActiveSessions()) != 1:
		log.Fatalf("failover did not hold: %s holds %d sessions, want 1",
			survivor, len(deployment.Server(survivor).ActiveSessions()))
	case c.Displayed-before.Displayed < 60:
		log.Fatalf("failover did not hold: only %d frames displayed after the stop", c.Displayed-before.Displayed)
	case c.MaxStallRun > 30:
		log.Fatalf("failover did not hold: froze for %d ticks", c.MaxStallRun)
	}
	fmt.Printf("%s took the viewer over — failover on a real network\n", survivor)
}
