// VCR session: the client has "full VCR-like control over the transmitted
// material" (§3, per the ATM Forum VoD spec): pause, resume, arbitrary
// random access, and quality adjustment for constrained clients (§4.3).
// Seeks flush the client buffers, which triggers the §4.1 emergency refill.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
)

func main() {
	clk := clock.NewVirtual(time.Now())
	network := netsim.New(clk, 3, netsim.LAN())

	movie := core.GenerateMovie("casablanca", 120*time.Second, 1)
	deployment, err := core.Deploy(core.DeployOptions{
		Clock:   clk,
		Network: network,
		Servers: []string{"server-1", "server-2"},
		Movies:  []*core.Movie{movie},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Stop()
	clk.Advance(time.Second)

	viewer, err := deployment.NewClient("viewer-1")
	if err != nil {
		log.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Watch("casablanca"); err != nil {
		log.Fatal(err)
	}

	status := func(what string) {
		c := viewer.Counters()
		occ := viewer.Occupancy()
		fmt.Printf("%-34s displayed=%-5d buffered=%-3d emergencies=%d\n",
			what, c.Displayed, occ.CombinedFrames, viewer.Stats().EmergenciesSent)
	}

	clk.Advance(10 * time.Second)
	status("t=10s  watching normally:")

	if err := viewer.Pause(); err != nil {
		log.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	status("t=15s  paused for 5s (frozen):")

	if err := viewer.Resume(); err != nil {
		log.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	status("t=20s  resumed:")

	// Random access deep into the movie: the server snaps to the next I
	// frame; the flushed buffers trigger an emergency refill.
	if err := viewer.Seek(2400); err != nil {
		log.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	status("t=25s  after seek to frame 2400:")

	// A constrained client asks for a third of the frames; the server
	// keeps every I frame and thins the rest (§4.3).
	if err := viewer.SetQuality(10); err != nil {
		log.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	serving := deployment.ServingServer("viewer-1")
	thinned := deployment.Server(serving).Stats().FramesThinned
	status("t=30s  at 10 fps quality:")
	fmt.Printf("%-34s server thinned %d frames\n", "", thinned)

	if err := viewer.StopWatching(); err != nil {
		log.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if serving = deployment.ServingServer("viewer-1"); serving == "" {
		serving = "no server"
	}
	fmt.Printf("\nsession closed; %s serves viewer-1\n", serving)
}
