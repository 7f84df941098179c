package gcs

import (
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// fdRig builds a process whose detector we can poke directly.
func fdRig(t *testing.T) (*cluster, *Process) {
	t.Helper()
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")
	return c, c.proc["a"]
}

func TestDetectorGracePeriod(t *testing.T) {
	c, p := fdRig(t)
	p.mu.Lock()
	// b is a fresh peer of interest: it must not be suspectable before a
	// full timeout has passed, even if it said nothing yet.
	suspected := p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("peer suspected during its grace period")
	}
	c.settle(100 * time.Millisecond)
	p.mu.Lock()
	suspected = p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("live peer suspected")
	}
}

func TestDetectorSuspectsSilentPeer(t *testing.T) {
	c, p := fdRig(t)
	c.net.Crash("b")
	// The suspicion is transient: once the view change excludes b, the
	// detector prunes its state. Step in small increments to observe it.
	sawSuspected := false
	for i := 0; i < 40 && !sawSuspected; i++ {
		c.settle(50 * time.Millisecond)
		p.mu.Lock()
		sawSuspected = p.fd.isSuspectedLocked("b")
		p.mu.Unlock()
	}
	if !sawSuspected {
		t.Fatal("silent peer never suspected")
	}
	// And the view change it triggered completes.
	c.waitConverged(5*time.Second, "a")
}

func TestDetectorUnsuspectsOnTraffic(t *testing.T) {
	_, p := fdRig(t)
	p.mu.Lock()
	p.fd.suspectLocked("b")
	if !p.fd.isSuspectedLocked("b") {
		p.mu.Unlock()
		t.Fatal("suspectLocked had no effect")
	}
	p.fd.heardLocked("b")
	suspected := p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("suspicion not cleared by inbound traffic")
	}
}

func TestDetectorForgetsUninterestingPeers(t *testing.T) {
	c, p := fdRig(t)
	c.net.Crash("b")
	c.waitConverged(5*time.Second, "a")
	// b is out of every view; the detector must prune its state rather
	// than track the dead process forever.
	c.settle(3 * time.Second)
	p.mu.Lock()
	_, tracked := p.fd.lookup("b")
	p.mu.Unlock()
	if tracked {
		t.Fatal("detector still tracks a peer outside every view")
	}
}

func TestDetectorSuspectLockedIgnoresSelf(t *testing.T) {
	_, p := fdRig(t)
	p.mu.Lock()
	p.fd.suspectLocked(p.id)
	self := p.fd.isSuspectedLocked(p.id)
	p.mu.Unlock()
	if self {
		t.Fatal("process suspected itself")
	}
}

// fdTable builds a process that never joined, so no ticker runs and the
// test alone drives its detector.
func fdTable(t *testing.T) (*clock.Virtual, *Process) {
	t.Helper()
	clk := clock.NewVirtual(gcsEpoch)
	ep, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Clock: clk, Endpoint: ep})
	t.Cleanup(p.Close)
	return clk, p
}

// watchAndCheckLocked makes p's detector watch the members of views, one
// membership each, and returns what checkLocked then reports. Caller holds
// p.mu.
func watchAndCheckLocked(p *Process, views ...[]ProcessID) []ProcessID {
	p.members = p.members[:0]
	for _, ids := range views {
		p.members = append(p.members, &Member{p: p, active: true, view: View{Members: ids}})
	}
	p.fd.watchLocked()
	return slices.Clone(p.fd.checkLocked())
}

// TestDetectorUnwatchedSuspectPersists: a peer suspected before anything
// watches it stays suspected through prunes and when it becomes watched,
// until something is heard from it.
func TestDetectorUnwatchedSuspectPersists(t *testing.T) {
	clk, p := fdTable(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fd.suspectLocked("z")
	for step, views := range [][][]ProcessID{{{"a", "b"}}, {}, {{"a", "b", "z"}}} {
		if newly := watchAndCheckLocked(p, views...); len(newly) != 0 {
			t.Fatalf("step %d: %v newly suspected", step, newly)
		}
		if !p.fd.isSuspectedLocked("z") {
			t.Fatalf("step %d: suspicion of z lost while watching %v", step, views)
		}
		p.mu.Unlock()
		clk.Advance(suspectTimeout / 2)
		p.mu.Lock()
	}
	p.fd.heardLocked("z")
	if p.fd.isSuspectedLocked("z") {
		t.Fatal("suspicion of z not cleared by inbound traffic")
	}
	// Unwatched again, a cleared suspect is forgotten.
	watchAndCheckLocked(p)
	if _, tracked := p.fd.lookup("z"); tracked {
		t.Fatal("detector still tracks a cleared suspect nobody watches")
	}
}

// TestDetectorSuspectsInIDOrder: peers that fall silent together come out
// of checkLocked in ID order, whatever groups they are watched through.
func TestDetectorSuspectsInIDOrder(t *testing.T) {
	clk, p := fdTable(t)
	views := [][]ProcessID{{"a", "d"}, {"a", "b", "c"}, {"a", "b", "e"}}
	p.mu.Lock()
	watchAndCheckLocked(p, views...)
	p.mu.Unlock()
	clk.Advance(suspectTimeout)
	p.mu.Lock()
	newly := watchAndCheckLocked(p, views...)
	p.mu.Unlock()
	if want := []ProcessID{"b", "c", "d", "e"}; !slices.Equal(newly, want) {
		t.Fatalf("newly suspected %v, want %v", newly, want)
	}
}

// TestDetectorGraceFromFirstWatch: a peer is suspectable one full
// suspectTimeout after it is first watched, not earlier, however long
// other peers have been watched.
func TestDetectorGraceFromFirstWatch(t *testing.T) {
	clk, p := fdTable(t)
	check := func(views ...[]ProcessID) []ProcessID {
		p.mu.Lock()
		defer p.mu.Unlock()
		return watchAndCheckLocked(p, views...)
	}
	check([]ProcessID{"a", "b"})
	clk.Advance(suspectTimeout / 2)
	both := []ProcessID{"a", "b", "c"}
	check(both) // c is first watched here
	clk.Advance(suspectTimeout/2 - time.Nanosecond)
	if newly := check(both); len(newly) != 0 {
		t.Fatalf("%v suspected before a full timeout", newly)
	}
	clk.Advance(time.Nanosecond)
	if newly := check(both); !slices.Equal(newly, []ProcessID{"b"}) {
		t.Fatalf("at b's timeout, newly suspected %v, want [b]", newly)
	}
	clk.Advance(suspectTimeout/2 - time.Nanosecond)
	if newly := check(both); len(newly) != 0 {
		t.Fatalf("%v suspected before c's full timeout", newly)
	}
	clk.Advance(time.Nanosecond)
	if newly := check(both); !slices.Equal(newly, []ProcessID{"c"}) {
		t.Fatalf("at c's timeout, newly suspected %v, want [c]", newly)
	}
}
