package sim

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/netsim"
)

// TableCapacity measures how many concurrent viewers one server's uplink
// sustains — the scalability pressure that motivates the paper's
// multi-server design (§1). The server's NIC is capped at 100 Mbps
// (switched Ethernet); each 1.4 Mbps stream takes ~1/70 of it. Beyond the
// knee the shared egress queue backs up: established streams coast on
// their buffers while newcomers cannot even complete session setup —
// which is exactly when "new servers may be brought up on the fly to
// alleviate the load", or when admission control caps the damage (last
// row: the same overload with the server admitting only 65).
func TableCapacity(seed int64) Table {
	t := Table{
		ID:    "Abl C",
		Title: "viewers per server on a 100 Mbps uplink (motivates §1)",
		Header: []string{
			"viewers", "admitted", "uplink demand", "healthy", "starved",
			"stalls/healthy viewer", "worst freeze (ticks)",
		},
	}
	type cfg struct {
		n   int
		max int // admission limit; 0 = none
	}
	cases := []cfg{{10, 0}, {40, 0}, {65, 0}, {85, 0}, {85, 65}}
	// Each load point is an independent cluster streaming the same 30s
	// title (one seed, so one immutable Movie shared by all five); fan
	// them across cores.
	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 30 * time.Second, Seed: seed})
	trials := fanOut(len(cases), func(i int) capacityResult {
		return capacityTrial(seed, movie, cases[i].n, cases[i].max)
	})
	for i, tc := range cases {
		res := trials[i]
		admitted := "all"
		if tc.max > 0 {
			admitted = strconv.Itoa(tc.max)
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(tc.n),
			admitted,
			fmt.Sprintf("%d%%", tc.n*1400/1000),
			strconv.Itoa(res.healthy),
			strconv.Itoa(res.starved),
			fmt.Sprintf("%.1f", res.stallsPerHealthy),
			strconv.FormatUint(res.worstFreeze, 10),
		})
	}
	return t
}

type capacityResult struct {
	healthy          int // viewers that displayed ≥80% of their expected frames
	starved          int // viewers below 50% (typically: never finished setup)
	stallsPerHealthy float64
	worstFreeze      uint64
}

// viewerSet is the trial's per-viewer bookkeeping in struct-of-arrays
// layout: the live clients in one dense slice, and the per-viewer counters
// gathered into parallel columns at harvest time. Classification then scans
// three flat uint64 columns instead of chasing a thousand client pointers
// (each behind a mutex) per predicate.
type viewerSet struct {
	clients   []*client.Client
	displayed []uint64
	stalls    []uint64
	maxStall  []uint64
}

// close closes every viewer.
func (vs *viewerSet) close() {
	for _, c := range vs.clients {
		c.Close()
	}
}

// harvest snapshots every viewer's counters into the columns — one locked
// read per client, after which the classification passes touch only the
// arrays.
func (vs *viewerSet) harvest() {
	for _, c := range vs.clients {
		cnt := c.Counters()
		vs.displayed = append(vs.displayed, cnt.Displayed)
		vs.stalls = append(vs.stalls, cnt.Stalls)
		vs.maxStall = append(vs.maxStall, cnt.MaxStallRun)
	}
}

// classify buckets the harvested viewers against the expected frame count.
func (vs *viewerSet) classify(expected uint64) capacityResult {
	var res capacityResult
	var healthyStalls uint64
	for i, shown := range vs.displayed {
		switch {
		case shown >= expected*8/10:
			res.healthy++
			healthyStalls += vs.stalls[i]
		case shown < expected/2:
			res.starved++
		}
		if vs.maxStall[i] > res.worstFreeze {
			res.worstFreeze = vs.maxStall[i]
		}
	}
	if res.healthy > 0 {
		res.stallsPerHealthy = float64(healthyStalls) / float64(res.healthy)
	}
	return res
}

// capacityTrial runs n viewers against one egress-limited server for the
// 30-second movie and classifies each viewer's playback quality against
// what a healthy session would have displayed.
func capacityTrial(seed int64, movie *mpeg.Movie, n, maxSessions int) capacityResult {
	rt := newWorld(seed, netsim.LAN())
	defer rt.release()
	rt.Net.SetEgressLimit("server-1", 100*1000*1000/8)
	rt.deploy(core.DeployOptions{
		Servers:     []string{"server-1"},
		Movies:      []*mpeg.Movie{movie},
		MaxSessions: maxSessions,
	})
	defer rt.Stop()
	rt.Clk.Advance(500 * time.Millisecond)

	var vs viewerSet
	defer vs.close()
	for i := 0; i < n; i++ {
		cfg := rt.ClientConfig(fmt.Sprintf("viewer-%03d", i))
		vs.clients = append(vs.clients, rt.watch(cfg, movie.ID()))
		rt.Clk.Advance(50 * time.Millisecond) // staggered arrivals
	}
	watch := 28 * time.Second
	rt.Clk.Advance(watch)

	expected := uint64(watch/time.Second) * 30 * 9 / 10 // minus startup slack
	vs.harvest()
	return vs.classify(expected)
}
