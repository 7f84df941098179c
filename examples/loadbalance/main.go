// Load balancing: "new servers may be brought up on the fly to alleviate
// the load on other servers" (§1). Six clients watch the same movie from
// two servers; a third, fresh server is brought up mid-stream. The movie
// group's membership change triggers a knowledge exchange and a
// deterministic re-distribution, and the newcomer absorbs its share of the
// clients — transparently to every viewer.
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
	network := netsim.New(clk, 11, netsim.LAN())

	movie := core.GenerateMovie("casablanca", 120*time.Second, 1)
	deployment, err := core.Deploy(core.DeployOptions{
		Clock:      clk,
		Network:    network,
		Servers:    []string{"server-1", "server-2"},
		ExtraPeers: []string{"server-3"}, // may join later
		Movies:     []*core.Movie{movie},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Stop()
	clk.Advance(time.Second)

	var viewers []*core.Client
	for i := 1; i <= 6; i++ {
		v, err := deployment.NewClient(fmt.Sprintf("viewer-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer v.Close()
		if err := v.Watch("casablanca"); err != nil {
			log.Fatal(err)
		}
		viewers = append(viewers, v)
		clk.Advance(200 * time.Millisecond)
	}
	clk.Advance(10 * time.Second)

	printLoad := func(when string) {
		fmt.Printf("%-28s", when)
		for _, id := range deployment.ServerIDs() { // sorted
			fmt.Printf("  %s: %d clients", id, len(deployment.Server(id).ActiveSessions()))
		}
		fmt.Println()
	}

	printLoad("before (2 servers):")
	fmt.Println("\nbringing up server-3 to alleviate the load ...")
	if err := deployment.AddServer("server-3"); err != nil {
		log.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	printLoad("after (3 servers):")

	// No viewer noticed.
	clk.Advance(10 * time.Second)
	fmt.Println()
	for _, v := range viewers {
		c := v.Counters()
		fmt.Printf("%s: displayed=%d skipped=%d late=%d stalls=%d\n",
			v.ID(), c.Displayed, c.Skipped(), c.Late, c.Stalls)
	}
}
