package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
)

// openInstantViewers is how many viewers each open-instant run starts.
const openInstantViewers = 4

// starvedAfterOpen deploys two servers holding movie on a simulated LAN
// (netsim seed seed, state sync every sync, 0 for the default) and has four
// viewers call Watch, the first at after Deploy and each next one stagger
// later. Two seconds after the last Open it names every viewer that has
// received no frame or is not served by exactly one server.
func starvedAfterOpen(t testing.TB, movie *core.Movie, seed int64, sync, at, stagger time.Duration) []string {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := core.Deploy(core.DeployOptions{
		Clock:        clk,
		Network:      netsim.New(clk, seed, netsim.LAN()),
		Servers:      []string{"s1", "s2"},
		Movies:       []*core.Movie{movie},
		SyncInterval: sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	clk.Advance(at)
	viewers := make([]*core.Client, openInstantViewers)
	for i := range viewers {
		if i > 0 {
			clk.Advance(stagger)
		}
		c, err := d.NewClient(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch(movie.ID()); err != nil {
			t.Fatal(err)
		}
		viewers[i] = c
	}
	clk.Advance(2 * time.Second)
	var starved []string
	for i, c := range viewers {
		id := fmt.Sprintf("v%d", i)
		servers := 0
		d.EachServer(func(_ string, s *core.Server) {
			if s.HasSession(id) {
				servers++
			}
		})
		if frames := c.Counters().Received; frames == 0 || servers != 1 {
			starved = append(starved, fmt.Sprintf("%s (%d frames, served by %d servers)", id, frames, servers))
		}
	}
	return starved
}

// TestOpenWhileMovieViewInstalls is ROADMAP 1(k)'s reproduction: four
// viewers open 21 ms after Deploy (LAN, netsim seed 1), as s1 installs the
// movie group's first two-server view. s1 had already multicast its empty
// exchange record, so s2 dealt over no clients while s1 dealt over the four
// it had opened meanwhile: s1 kept two and released two that nobody took, and
// their reopens were told they were served elsewhere. A server now refuses a
// session-group Open for a short retry while the title's exchange is pending.
func TestOpenWhileMovieViewInstalls(t *testing.T) {
	movie := core.GenerateMovie("m", 30*time.Second, 1)
	if starved := starvedAfterOpen(t, movie, 1, 0, 21*time.Millisecond, 0); len(starved) > 0 {
		t.Fatalf("viewers without frames or without exactly one server 2 s after their Open: %v", starved)
	}
}

// TestOpenInstantSweep is ROADMAP 16(d)'s open-instant sweep: the instant
// four viewers open moves over the first 900 ms after Deploy in 1 ms steps,
// over netsim seeds 1–3 (seed s staggers the Opens by 7(s−1) ms) and
// state-sync intervals of 50 and 500 ms, and no opening phase may leave a
// viewer without frames or without exactly one server. Before the fix it
// starved six viewers in four runs, all with Opens in the first 30 ms, as the
// movie view installs. Under -short only the first 60 ms are swept.
func TestOpenInstantSweep(t *testing.T) {
	movie := core.GenerateMovie("m", 30*time.Second, 1)
	last := 900
	if testing.Short() {
		last = 60
	}
	for _, sync := range []time.Duration{50 * time.Millisecond, 500 * time.Millisecond} {
		for seed := int64(1); seed <= 3; seed++ {
			stagger := 7 * time.Duration(seed-1) * time.Millisecond
			for ms := 0; ms <= last; ms++ {
				at := time.Duration(ms) * time.Millisecond
				if starved := starvedAfterOpen(t, movie, seed, sync, at, stagger); len(starved) > 0 {
					t.Errorf("sync %v, seed %d, Opens from %v: %v", sync, seed, at, starved)
				}
			}
		}
	}
}
