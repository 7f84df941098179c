package gcs

import (
	"fmt"
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
// and installs into the codec's envelopes while other goroutines wait to
// decode the next datagrams and the members' phase timers fire. With inject
// set, four more goroutines push a datagram of every kind through a's
// onPacket all the while, so a's envelopes are overwritten as fast as a lock
// allows: this is where a read of one outside p.mu, or a callback that kept
// one, would show. Each takes about a second; run them as
// go test -race -count=5 -run 'TestRealClockViewChurn|TestRealClockDecodeUnderChurn' ./internal/gcs.
func TestRealClockViewChurn(t *testing.T) { realClockViewChurn(t, false) }

// TestRealClockDecodeUnderChurn is the view churn with datagrams of every
// kind injected into a. The group-scoped ones name a group a is not in, so
// they are decoded and dropped; the anycasts (to a's group) and direct
// datagrams reach a's handlers, which check that their payload is the one
// injected — it aliases the datagram, never an envelope.
func TestRealClockDecodeUnderChurn(t *testing.T) { realClockViewChurn(t, true) }

func realClockViewChurn(t *testing.T, inject bool) {
	net := netsim.New(clock.Real{}, 1, netsim.LAN())
	var (
		mu        sync.Mutex // guards procs and mems: the sender goroutine reads them
		procs     = map[ProcessID]*Process{}
		mems      = map[ProcessID]*Member{}
		delivered atomic.Int64
		anycasts  atomic.Int64 // injected, to a
	)
	handlers := Handlers{OnMessage: func(_ string, _ ProcessID, payload []byte) {
		switch string(payload) {
		case "churn":
			delivered.Add(1)
		case "anycast":
			anycasts.Add(1)
		default:
			t.Errorf("delivered %q", payload)
		}
	}}
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

	if inject {
		var directs atomic.Int64
		mu.Lock()
		a := procs["a"]
		mu.Unlock()
		a.SetDirectHandler(func(_ ProcessID, payload []byte) {
			if string(payload) != "direct" {
				t.Errorf("a direct handler got %q", payload)
			}
			directs.Add(1)
		})
		kinds := everyKind("elsewhere", "z")
		for _, k := range everyKind("g", "z") {
			if k.name == "anycast" {
				kinds = append(kinds, k)
			}
		}
		done := make(chan struct{})
		var injectors sync.WaitGroup
		for w := range 4 {
			injectors.Add(1)
			go func() {
				defer injectors.Done()
				for i := w; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					k := kinds[i%len(kinds)]
					a.onPacket("z", k.pkt)
					if i%len(kinds) == 0 {
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()
		}
		defer func() {
			close(done)
			injectors.Wait()
			if anycasts.Load() == 0 || directs.Load() == 0 {
				t.Errorf("a's handlers took %d injected anycasts and %d direct datagrams, want some of each", anycasts.Load(), directs.Load())
			}
		}()
	}

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

// TestRealClockMembershipChurn has four goroutines Join and Leave twenty
// groups of one process over the real clock while its ticker snapshots the
// memberships, its heartbeats go out and a live peer shares a group with it.
// At the end the membership table must be sorted by group name and hold
// exactly the groups still joined. Run it as
// go test -race -count=5 -run TestRealClockMembershipChurn ./internal/gcs.
func TestRealClockMembershipChurn(t *testing.T) {
	net := netsim.New(clock.Real{}, 1, netsim.LAN())
	newProc := func(id ProcessID) *Process {
		ep, err := net.NewEndpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProcess(Config{Clock: clock.Real{}, Endpoint: ep})
		t.Cleanup(p.Close)
		return p
	}
	p, peer := newProc("a"), newProc("b")
	if _, err := peer.Join("live", Handlers{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Join("live", Handlers{}, "b"); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 5
	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for g := range perWorker {
					m, err := p.Join(churnGroup(w, g), Handlers{})
					if err != nil {
						errs <- err
						return
					}
					time.Sleep(time.Millisecond)
					if err := m.Leave(); err != nil {
						errs <- err
						return
					}
				}
			}
			// Leave every other group joined.
			for g := 0; g < perWorker; g += 2 {
				if _, err := p.Join(churnGroup(w, g), Handlers{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := []string{"live"}
	for w := range workers {
		for g := 0; g < perWorker; g += 2 {
			want = append(want, churnGroup(w, g))
		}
	}
	slices.Sort(want)
	p.mu.Lock()
	var got []string
	for _, m := range p.members {
		got = append(got, m.group)
	}
	ticks := p.tickCount
	p.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("membership table holds %v, want exactly the joined groups in order, %v", got, want)
	}
	if ticks == 0 {
		t.Fatal("the process never ticked during the churn")
	}
}

// churnGroup names worker w's g-th group.
func churnGroup(w, g int) string { return fmt.Sprintf("g%d-%d", w, g) }
