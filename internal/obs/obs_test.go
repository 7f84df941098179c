package obs_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestCounterAndSource(t *testing.T) {
	r := obs.NewRegistry("node-1", nil)
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter is not idempotent per name")
	}
	// Two sources under one name add up, as a restarted node's incarnations
	// do, and a source adds to a counter of the same name.
	for _, n := range []uint64{2, 3} {
		r.Source(func(s *obs.Snapshot) {
			s.Counters["a.owned"] += n
			s.Counters["a.count"] += 1
			s.Gauges["a.level"] += -7
		})
	}

	snap := r.Snapshot()
	if snap.Node != "node-1" {
		t.Fatalf("snapshot node = %q", snap.Node)
	}
	if snap.Counters["a.count"] != 7 || snap.Counters["a.owned"] != 5 || snap.Gauges["a.level"] != -14 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := r.Value("a.owned"); got != 5 {
		t.Fatalf("Value(a.owned) = %d, want 5", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	// A nil registry hands out nil counters and drops sources: updates are
	// discarded, loads are zero, nothing panics and nothing is allocated —
	// registering a source included.
	var r *obs.Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry handed out a counter: %p", c)
	}
	called := false
	read := func(*obs.Snapshot) { called = true }
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Counter("x")
		c.Inc()
		c.Add(4)
		r.Source(read)
		r.Emit(obs.GCSSuspect, "s1", "", 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("an unobserved node's instruments cost %v allocs, want 0", allocs)
	}
	if c.Load() != 0 {
		t.Fatalf("nil counter loads %d, want 0", c.Load())
	}
	snap := r.Snapshot()
	if snap.Node != "" || len(snap.Counters) != 0 || len(snap.Gauges) != 0 || r.Value("x") != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	if called {
		t.Fatal("a nil registry called a source")
	}
}

// TestConcurrentCountersAndSnapshot hammers the registry from many
// goroutines while snapshots are taken; run under -race this is the
// tentpole's concurrency-safety check.
func TestConcurrentCountersAndSnapshot(t *testing.T) {
	r := obs.NewRegistry("n", nil)
	const workers = 8
	const perWorker = 2000
	// An owner that keeps its count under its own lock and reports it
	// through a source, as the server and client do.
	var owner struct {
		sync.Mutex
		n uint64
	}
	r.Source(func(s *obs.Snapshot) {
		owner.Lock()
		defer owner.Unlock()
		s.Counters["owned"] += owner.n
		s.Gauges["level"] += int64(owner.n)
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", w)).Inc()
				owner.Lock()
				owner.n++
				owner.Unlock()
				if i%100 == 0 {
					r.Emit(obs.GCSSuspect, "s1", "", int64(i), 0)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	snap := r.Snapshot()
	if got := snap.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Counters["owned"]; got != workers*perWorker || snap.Gauges["level"] != workers*perWorker {
		t.Fatalf("owned = %d, level = %d, want %d", got, snap.Gauges["level"], workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := snap.Counters[fmt.Sprintf("own.%d", w)]; got != perWorker {
			t.Fatalf("own.%d = %d, want %d", w, got, perWorker)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	r := obs.NewRegistry("node-9", nil)
	r.Counter("c").Add(42)
	r.Emit(obs.NetsimCrash, "s1", "", 0, 0)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vod", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	var snap struct {
		Node     string
		Counters map[string]uint64
		Events   []obs.Event
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Node != "node-9" || snap.Counters["c"] != 42 || len(snap.Events) != 1 {
		t.Fatalf("decoded snapshot = %+v", snap)
	}
	if ev := snap.Events[0]; ev.Kind != "netsim.crash" || ev.Note != "s1" {
		t.Fatalf("decoded event = %+v, want netsim.crash s1", ev)
	}
}
