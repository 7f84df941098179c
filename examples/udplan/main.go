// UDP LAN: the same servers and client running over real UDP sockets on
// the loopback interface with the real clock — no simulation. Two servers
// stream a short movie; halfway through, the serving server is stopped and
// the survivor takes the client over, exactly as in the simulated runs.
//
// This example runs in real time (about 25 seconds).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/transport"
)

// udpNetwork adapts transport.ListenUDP to the transport.Network interface:
// each endpoint binds the UDP port named by its address.
type udpNetwork struct{}

func (udpNetwork) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	return transport.ListenUDP(string(addr), addr)
}

func main() {
	const viewerID = "127.0.0.1:18710"
	movie := core.GenerateMovie("short-feature", 30*time.Second, 1)
	deployment, err := core.Deploy(core.DeployOptions{
		Clock:   clock.Real{},
		Network: udpNetwork{},
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
	report(0, 10)

	victim := deployment.ServingServer(viewerID)
	fmt.Printf("\nstopping %s mid-stream ...\n\n", victim)
	deployment.StopServer(victim)
	report(10, 20)

	c := viewer.Counters()
	fmt.Printf("\nfinal: displayed=%d late=%d skipped=%d stalls=%d — failover on a real network\n",
		c.Displayed, c.Late, c.Skipped(), c.Stalls)
}
