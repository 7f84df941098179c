package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// dropSpares empties the spare stack, so that the next world is built new.
func dropSpares() {
	spares.Lock()
	clear(spares.worlds)
	spares.worlds = spares.worlds[:0]
	spares.Unlock()
}

// chaosScenario is a fault schedule of the kind chaos.Plan draws, built here
// because package chaos imports this one: a crash of whoever serves, a server
// joining, a partition and its heal, and a loss burst, on a jittered, lossy
// WAN, so that the network's RNG decides packet fates throughout.
func chaosScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	at := func(from, span int) time.Duration { return time.Duration(from+rng.Intn(span)) * time.Second }
	names := []string{"server-1", "server-2", "server-3", "server-4"}
	return Scenario{
		Name:     fmt.Sprintf("chaos-%d", seed),
		Profile:  netsim.WAN(),
		Seed:     seed,
		Servers:  names[:3],
		Peers:    names,
		Duration: 60 * time.Second,
		Events: []Event{
			{At: at(8, 10), Do: func(rt *Runtime) { rt.CrashServing() }},
			{At: at(5, 30), Do: func(rt *Runtime) { _ = rt.AddServer(names[3]) }},
			{At: at(20, 10), Do: func(rt *Runtime) { rt.Partition(names[:1], names[1:]) }},
			{At: at(32, 5), Do: func(rt *Runtime) { rt.HealNetwork() }},
			{At: at(40, 10), Do: func(rt *Runtime) { rt.LossBurst(0.2, 2*time.Second) }},
		},
		Record: Serving | Stalls,
	}
}

// TestRecycledWorldMatchesFresh: a world built on the clock and network of a
// finished one computes exactly what a world built new computes. Each call
// below first runs on the pair the 85-viewer capacity point left behind —
// records carved for ≈ 12,000 events in flight at its peak, a 16 k-slot heap,
// and deliveries still pending at its end — and then again after the spare
// stack is emptied. Under SetParallelism(4) the spares cross
// goroutines, which the race detector watches; -short runs only that pass.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 30 * time.Second, Seed: 1})
	calls := []struct {
		name string
		run  func() any
	}{
		{"figures", func() any {
			series, ann := Figures(1)
			return []any{series, ann}
		}},
		{"chaos seed", func() any {
			// A Result holds the run's registries, whose clock funcs
			// DeepEqual never matches: compare what they recorded instead.
			res := Run(chaosScenario(3))
			snaps := make(map[string]obs.Snapshot, len(res.Obs))
			for id, reg := range res.Obs {
				snaps[id] = reg.Snapshot()
			}
			res.Obs = nil
			return []any{res, snaps}
		}},
		{"overload", func() any { return OverloadTrial(OverloadConfig{Seed: 2, Restart: true}) }},
		{"tiger", func() any {
			lost, displayed := tigerTrial(1, []string{"cub-1", "cub-2"})
			return [2]uint64{lost, displayed}
		}},
	}
	defer dropSpares()
	passes := []int{1, 4}
	if testing.Short() {
		passes = passes[1:]
	}
	for _, workers := range passes {
		withParallelism(t, workers, func() {
			for _, c := range calls {
				dropSpares()
				capacityTrial(1, movie, 85, 0)
				recycled := c.run()
				dropSpares()
				if fresh := c.run(); !reflect.DeepEqual(recycled, fresh) {
					t.Errorf("workers=%d: %s on a recycled world differs from a fresh one", workers, c.name)
				}
			}
		})
	}
}

// TestReleasedWorldKeepsNothing: a spare clock and network hold nothing of the
// run that released them. A sentinel on the obs registries of the client, a
// server and the network stands in for the world: each registry is reachable
// from its node and from the Runtime, and holds the sentinel through a source
// that reports nothing; the sentinel holds no pointer back, so its finalizer
// runs exactly when the world is gone. (Neither a node nor its registry can
// carry the finalizer itself: a node's bound methods point back at it, a
// server's or client's source points from its registry back at the node, and
// the GC never finalizes a cycle.) The world's title outlives it in mpeg's
// table of held titles, and keeps nothing of it either.
func TestReleasedWorldKeepsNothing(t *testing.T) {
	dropSpares()
	defer dropSpares()
	nodes := []string{"client-1", "server-1", "net"}
	var gone [3]atomic.Bool
	title := mpeg.Generate("feature", mpeg.StreamConfig{Seed: 1})
	Run(Scenario{
		Name:     "release",
		Profile:  netsim.LAN(),
		Seed:     1,
		Servers:  []string{"server-1", "server-2"},
		Duration: 5 * time.Second,
		Events: []Event{{At: 3 * time.Second, Do: func(rt *Runtime) {
			for i, node := range nodes {
				// Large enough to stay out of the tiny allocator, whose
				// blocks may never be finalized.
				sentinel := new([4]int64)
				runtime.SetFinalizer(sentinel, func(*[4]int64) { gone[i].Store(true) })
				rt.registry(node).Source(func(*obs.Snapshot) { _ = sentinel })
			}
		}}},
	})
	spares.Lock()
	held := len(spares.worlds)
	spares.Unlock()
	if held != 1 {
		t.Fatalf("the spare stack holds %d pairs after one run, want 1", held)
	}
	runtime.GC()
	runtime.GC()
	// Finalizers run on a goroutine of their own once the GC has queued them.
	for wait := 0; wait < 200 && !(gone[0].Load() && gone[1].Load() && gone[2].Load()); wait++ {
		time.Sleep(time.Millisecond)
	}
	for i, node := range nodes {
		if !gone[i].Load() {
			t.Errorf("%s's registry outlived its world's release: the spare pair keeps the finished run alive", node)
		}
	}
	if mpeg.Generate("feature", mpeg.StreamConfig{Seed: 1}) != title {
		t.Error("the world's title is no longer held: the check ran without the holder it is about")
	}
}

// TestEveryWorldEndsQuiescent: every world the package builds ends holding
// nothing — no endpoint open, no AfterFunc or Periodic timer armed — and so is
// recycled. Every figure, table and trial runs here, and 50 chaos schedules.
func TestEveryWorldEndsQuiescent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table and figure; skipped in -short")
	}
	spares.Lock()
	before := spares.unquiet
	spares.Unlock()
	Figures(1)
	for _, id := range TableIDs() {
		if _, err := TableByID(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	tableScale(1, []scalePoint{{servers: 4, viewers: 100}})
	OverloadTrial(OverloadConfig{Seed: 1, Restart: true})
	fanOut(50, func(i int) *Result { return Run(chaosScenario(int64(i + 1))) })
	spares.Lock()
	unquiet := spares.unquiet - before
	spares.Unlock()
	if unquiet != 0 {
		t.Errorf("%d worlds ended with an endpoint open or a timer armed, want 0", unquiet)
	}
}
