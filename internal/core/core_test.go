package core_test

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
)

func deployRig(t *testing.T) (*clock.Virtual, *core.Deployment) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 5, netsim.LAN())
	d, err := core.Deploy(core.DeployOptions{
		Clock:      clk,
		Network:    net,
		Servers:    []string{"srv-a", "srv-b"},
		ExtraPeers: []string{"srv-c"},
		Movies: []*core.Movie{
			core.GenerateMovie("movie-1", 30*time.Second, 1),
			core.GenerateMovie("movie-2", 30*time.Second, 2),
		},
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return clk, d
}

func TestDeployAddServer(t *testing.T) {
	clk, d := deployRig(t)
	clk.Advance(2 * time.Second)
	c, err := d.NewClient("viewer-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Watch("movie-1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)

	if err := d.AddServer("srv-c"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if got := d.ServingServer("viewer-1"); got != "srv-c" {
		t.Fatalf("after adding a fresh server, serving = %q, want srv-c (newcomer absorbs load)", got)
	}
}

func TestDeployValidation(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.LAN())
	movie := core.GenerateMovie("m", time.Second, 1)

	if _, err := core.Deploy(core.DeployOptions{Network: net, Servers: []string{"s"}, Movies: []*core.Movie{movie}}); err == nil {
		t.Fatal("Deploy without clock succeeded")
	}
	if _, err := core.Deploy(core.DeployOptions{Clock: clk, Network: net, Movies: []*core.Movie{movie}}); err == nil {
		t.Fatal("Deploy without servers succeeded")
	}
	if _, err := core.Deploy(core.DeployOptions{Clock: clk, Network: net, Servers: []string{"s"}}); err == nil {
		t.Fatal("Deploy without movies succeeded")
	}
	if _, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: []string{"s"},
		Movies: []*core.Movie{movie}, Replicas: 5,
	}); err == nil {
		t.Fatal("Deploy with replicas > servers succeeded")
	}
}
