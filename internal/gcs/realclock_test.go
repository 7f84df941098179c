package gcs

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// TestRealClockViewChurn runs three processes on netsim over the real clock,
// where every delivery and every timer runs on a goroutine of its own. All
// three keep multicasting while c leaves, comes back as a fresh process and
// crashes: each view change decodes proposes, sync reports, cuts, cut-dones
// and installs into the codec's recycled envelopes while other goroutines
// decode the next datagrams and the members' phase timers fire, so this is
// where a race in that reuse would show. It takes about a second; run it as
// go test -race -count=5 -run TestRealClockViewChurn ./internal/gcs.
func TestRealClockViewChurn(t *testing.T) {
	net := netsim.New(clock.Real{}, 1, netsim.LAN())
	var (
		mu        sync.Mutex // guards procs and mems: the sender goroutine reads them
		procs     = map[ProcessID]*Process{}
		mems      = map[ProcessID]*Member{}
		delivered atomic.Int64
	)
	handlers := Handlers{OnMessage: func(string, ProcessID, []byte) { delivered.Add(1) }}
	join := func(id ProcessID, contacts ...ProcessID) {
		t.Helper()
		ep, err := net.NewEndpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProcess(Config{Clock: clock.Real{}, Endpoint: ep})
		m, err := p.Join("g", handlers, contacts...)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		procs[id], mems[id] = p, m
		mu.Unlock()
	}
	crash := func(id ProcessID) {
		mu.Lock()
		p := procs[id]
		delete(procs, id)
		delete(mems, id)
		mu.Unlock()
		p.Close()
		net.Crash(id)
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range procs {
			p.Close()
		}
	}()
	// waitView waits until every one of ids has installed the same view,
	// whose members are exactly ids.
	waitView := func(step string, ids ...ProcessID) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			first := mems[ids[0]].View()
			agreed := slices.Equal(first.Members, ids)
			for _, id := range ids[1:] {
				agreed = agreed && mems[id].View().ID == first.ID
			}
			mu.Unlock()
			if agreed {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %v did not agree on a view of exactly themselves within 5 s", step, ids)
			}
		}
	}

	stop, sent := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sent)
		payload := []byte("churn")
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			mu.Lock()
			for _, m := range mems {
				_ = m.Multicast(payload) // ErrClosed once c has left
			}
			mu.Unlock()
		}
	}()
	defer func() { close(stop); <-sent }()

	join("a")
	join("b", "a")
	join("c", "a")
	waitView("join", "a", "b", "c")

	mu.Lock()
	leaver := mems["c"]
	mu.Unlock()
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	waitView("leave", "a", "b")

	crash("c") // the process that left, before it comes back as a new one
	join("c", "a")
	waitView("rejoin", "a", "b", "c")

	crash("c")
	waitView("crash", "a", "b")
	if delivered.Load() == 0 {
		t.Fatal("no multicast was delivered during the churn")
	}
}
