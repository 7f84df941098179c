package core_test

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestRealClockSnapshotWhileStreaming reads every node's registry — Snapshot
// and the /debug/vod handler — from goroutines of its own while two servers
// stream to four viewers on loopback UDP and the real clock. Each read runs
// the server's and client's sources, which take the node's own lock against
// its pacing, sync, display and delivery work. Under -race the reads must
// show no race, the readers and Stop must return, and once everything has
// stopped each registry must read exactly what its owner counted.
// go test -race -count=10 -run TestRealClockSnapshotWhileStreaming ./internal/core
func TestRealClockSnapshotWhileStreaming(t *testing.T) {
	servers := []string{"127.0.0.1:19841", "127.0.0.1:19842"}
	var viewerIDs []string
	for i := range 4 {
		viewerIDs = append(viewerIDs, fmt.Sprintf("127.0.0.1:%d", 19851+i))
	}
	// Every registry exists before the readers start, so the map is only read.
	regs := map[string]*obs.Registry{}
	for _, id := range append(append([]string{}, servers...), viewerIDs...) {
		regs[id] = obs.NewRegistry(id, nil)
	}
	d, err := core.Deploy(core.DeployOptions{
		Clock:        clock.Real{},
		Network:      transport.UDPNetwork{},
		Servers:      servers,
		Movies:       []*core.Movie{core.GenerateMovie("short", 20*time.Second, 1)},
		SyncInterval: 50 * time.Millisecond,
		Obs:          func(node string) *obs.Registry { return regs[node] },
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
		returns(t, "Deployment.Stop", d.Stop)
	}
	defer stop()

	quit := make(chan struct{})
	var readers sync.WaitGroup
	var reads sync.Map // node -> number of reads
	for id, reg := range regs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			n := 0
			for {
				select {
				case <-quit:
					reads.Store(id, n)
					return
				default:
				}
				_ = reg.Snapshot()
				reg.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/vod", nil))
				n++
			}
		}()
	}
	stopReaders := func() {
		select {
		case <-quit:
			return
		default:
		}
		close(quit)
		returns(t, "a registry reader", readers.Wait)
	}
	defer stopReaders()

	time.Sleep(300 * time.Millisecond) // let the two servers find each other first
	var viewers []*core.Client
	for _, id := range viewerIDs {
		c, err := d.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch("short"); err != nil {
			t.Fatal(err)
		}
		viewers = append(viewers, c)
	}
	// Read through the registries until every viewer is watching, frames
	// are arriving and the servers have synced: the sources then race live
	// Opens, video, flow control and state sync. (Not every viewer need have
	// frames: one opened while the movie group's first view forms can be
	// orphaned, a defect ROADMAP 1(k) records.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var syncs, frames uint64
		for _, id := range servers {
			syncs += regs[id].Value("server.sync_messages")
		}
		watching := 0
		for i, id := range viewerIDs {
			frames += regs[id].Value("client.frames_received")
			if viewers[i].State() == client.StateWatching {
				watching++
			}
		}
		if watching == len(viewers) && frames > 0 && syncs >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never got going: %d of %d watching, %d frames received, %d syncs",
				watching, len(viewers), frames, syncs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopReaders()
	for id := range regs {
		if n, _ := reads.Load(id); n == 0 {
			t.Errorf("%s's registry was never read while streaming", id)
		}
	}
	stop()
	for _, c := range viewers {
		c.Close()
	}

	for i, c := range viewers {
		snap := regs[viewerIDs[i]].Snapshot()
		if got, want := snap.Counters["client.frames_received"], c.Counters().Received; got != want {
			t.Errorf("%s: client.frames_received = %d, the pipeline counted %d", viewerIDs[i], got, want)
		}
		if got, want := snap.Counters["client.flow_sent"], c.Stats().FlowSent; got != want {
			t.Errorf("%s: client.flow_sent = %d, Stats says %d", viewerIDs[i], got, want)
		}
	}
	var sent, opened uint64
	for _, id := range servers {
		sent += regs[id].Value("server.frames_sent")
		opened += regs[id].Value("server.sessions_opened")
		if got := regs[id].Snapshot().Gauges["server.active_sessions"]; got != 0 {
			t.Errorf("%s reports %d active sessions after Stop", id, got)
		}
	}
	if sent == 0 || opened != uint64(len(viewers)) {
		t.Errorf("servers report %d frames sent and %d sessions opened, want > 0 and %d", sent, opened, len(viewers))
	}
}

// returns fails the test if f has not returned within ten seconds: a source
// and its owner deadlocked.
func returns(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: deadlocked", what)
	}
}
