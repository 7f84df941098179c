package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestRealClockHandlersAndStop runs two servers and four viewers on loopback
// UDP and the real clock, where every inbound handler does its work on the
// goroutine gcs delivers on: Opens on the server group, the state sync on the
// movie group (shortened to 50 ms, delivered both to the peer and back to its
// sender) and flow control on the session groups all cross the pacing and sync
// timers, which take the same server lock. Stop lands in the middle of that
// traffic and has to return. Short enough (≈ 1 s) to run under -race -short,
// which is where it earns its keep: go test -race -count=10 -run
// TestRealClockHandlersAndStop ./internal/core.
func TestRealClockHandlersAndStop(t *testing.T) {
	servers := []string{"127.0.0.1:19821", "127.0.0.1:19822"}
	d, err := core.Deploy(core.DeployOptions{
		Clock:        clock.Real{},
		Network:      transport.UDPNetwork{},
		Servers:      servers,
		Movies:       []*core.Movie{core.GenerateMovie("short", 20*time.Second, 1)},
		SyncInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		done := make(chan struct{})
		go func() { d.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Deployment.Stop did not return: a handler and a sender are deadlocked")
		}
	}
	defer stop()
	time.Sleep(300 * time.Millisecond) // let the two servers find each other first

	var viewers []*core.Client
	for i := range 4 {
		c, err := d.NewClient(fmt.Sprintf("127.0.0.1:%d", 19831+i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch("short"); err != nil {
			t.Fatal(err)
		}
		viewers = append(viewers, c)
	}
	// Wait until all three kinds of traffic are demonstrably in flight, then
	// stop through it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var syncs, sessions, flow uint64
		d.EachServer(func(_ string, s *core.Server) {
			st := s.Stats()
			syncs += st.SyncMessages
			sessions += st.SessionsOpened
		})
		watching := 0
		for _, c := range viewers {
			flow += c.Stats().FlowSent
			if c.State() == client.StateWatching {
				watching++
			}
		}
		if watching == len(viewers) && syncs >= 10 && flow >= uint64(len(viewers)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never got going: %d of %d watching, %d sessions opened, %d syncs, %d flow-control requests",
				watching, len(viewers), sessions, syncs, flow)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()
}
