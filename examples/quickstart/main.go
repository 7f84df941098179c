// Quickstart: deploy a fault-tolerant VoD service (three servers, one
// movie replicated on all of them), connect a client, and watch the first
// half minute of playback — all in-process on the simulated network, so it
// runs in milliseconds and needs no network access.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flowctl"
	"repro/internal/netsim"
)

func main() {
	// A virtual clock plus a simulated switched-Ethernet LAN. Swap in
	// clock.Real{} and UDP endpoints for a real deployment (see
	// examples/udplan).
	clk := clock.NewVirtual(time.Now())
	network := netsim.New(clk, 42, netsim.LAN())

	movie := core.GenerateMovie("casablanca", 90*time.Second, 1)
	deployment, err := core.Deploy(core.DeployOptions{
		Clock:    clk,
		Network:  network,
		Servers:  []string{"server-1", "server-2", "server-3"},
		Movies:   []*core.Movie{movie},
		Replicas: 3, // tolerate 2 server failures
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Stop()
	clk.Advance(time.Second) // let the server group form

	viewer, err := deployment.NewClient("viewer-1")
	if err != nil {
		log.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Watch("casablanca"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("movie:", movie)
	fmt.Println("replicas:", deployment.Placement["casablanca"])
	fmt.Println()
	fmt.Printf("%6s  %10s  %9s  %8s  %7s  %s\n",
		"time", "displayed", "buffered", "skipped", "stalls", "served by")
	c, occ := viewer.Counters(), viewer.Occupancy()
	for i := 0; i < 6; i++ {
		clk.Advance(5 * time.Second)
		c, occ = viewer.Counters(), viewer.Occupancy()
		fmt.Printf("%6s  %10d  %9d  %8d  %7d  %s\n",
			time.Duration(i+1)*5*time.Second, c.Displayed, occ.CombinedFrames,
			c.Skipped(), c.Stalls, deployment.ServingServer("viewer-1"))
	}

	// Claim smooth playback only when the final counters show it.
	marks := flowctl.MarksOf(flowctl.DefaultParams().Buffer)
	var wrong []string
	if n := c.Skipped(); n > 0 {
		wrong = append(wrong, fmt.Sprintf("%d frames skipped", n))
	}
	if c.Stalls > 0 {
		wrong = append(wrong, fmt.Sprintf("%d stalls", c.Stalls))
	}
	if b := occ.CombinedFrames; b < marks.LowWater || b > marks.HighWater {
		wrong = append(wrong, fmt.Sprintf("%d frames buffered, outside the water marks (%d–%d)", b, marks.LowWater, marks.HighWater))
	}
	if len(wrong) > 0 {
		fmt.Println("\nplayback was not smooth:", strings.Join(wrong, "; "))
		os.Exit(1) // everything is in-process: the skipped defers hold nothing outside it
	}
	fmt.Printf("\nplayback is smooth: the buffers sit between the water marks (%d–%d frames) and nothing was skipped.\n",
		marks.LowWater, marks.HighWater)
}
