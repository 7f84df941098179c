// Failover: the paper's headline demonstration. A client watches a movie;
// mid-playback the server transmitting it is killed. The surviving replica
// detects the failure through the group membership service, takes the
// client over from the last synchronized offset, and refills the client's
// buffers with the decaying emergency burst — the viewer never notices.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
)

func main() {
	clk := clock.NewVirtual(time.Now())
	network := netsim.New(clk, 7, netsim.LAN())

	movie := core.GenerateMovie("casablanca", 90*time.Second, 1)
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

	clk.Advance(20 * time.Second)
	victim := deployment.ServingServer("viewer-1")
	before := viewer.Counters()
	fmt.Printf("t=20s   %s is serving the client — killing it now\n", victim)
	deployment.StopServer(victim)
	network.Crash(transport.Addr(victim))

	// Watch the takeover happen.
	for i := 0; i < 8; i++ {
		clk.Advance(250 * time.Millisecond)
		serving := deployment.ServingServer("viewer-1")
		occ := viewer.Occupancy()
		label := serving
		if label == "" {
			label = "(nobody — failure being detected)"
		}
		fmt.Printf("t=%vs  serving=%-36s buffered=%d frames\n",
			20.25+float64(i)*0.25, label, occ.CombinedFrames)
	}

	clk.Advance(15 * time.Second)
	after := viewer.Counters()
	fmt.Println()
	fmt.Printf("displayed across the failure window: %d frames\n", after.Displayed-before.Displayed)
	fmt.Printf("frames skipped:                      %d\n", after.Skipped()-before.Skipped())
	fmt.Printf("duplicate (late) frames:             %d\n", after.Late-before.Late)
	fmt.Printf("display stalls:                      %d\n", after.Stalls-before.Stalls)
	fmt.Println("\nthe transition is invisible to a human observer (paper §6.1).")
}
