package sim

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// OverloadConfig scripts the overload scenario: a small fleet of
// reserved-class viewers is streaming comfortably when a flash crowd of
// best-effort viewers piles onto the same title, a loss burst hits the
// network mid-crowd, and (optionally) the primary server crashes and
// cold-restarts while all of it is going on. The server runs the
// degrade-before-refuse ladder: best-effort quality is shed first, then
// best-effort frames are throttled by the egress token bucket, then
// best-effort Opens are refused with a retry hint — reserved viewers are
// never touched and must ride through with zero stalls.
type OverloadConfig struct {
	Seed int64
	// Restart crashes the primary at 14s and cold-restarts it at 17s: the
	// peer adopts every session (takeover bypasses admission), then
	// redistribution deals them back after the restarted server refetches
	// the movie.
	Restart bool
}

// The overload scenario's fleets, ladder and loss burst.
const (
	// ovReserved and ovBestEffort size the two viewer fleets.
	ovReserved   = 8
	ovBestEffort = 24
	// ovMaxSessions, ovBestEffortSessions and ovDegradeSessions are the
	// ladder rungs, thresholds on the server's total session count: with 8
	// reserved viewers the crowd fills the remaining 16 best-effort slots
	// and the rest are refused. ovShapeRate is the egress token-bucket rate
	// in bytes/s, below the degraded fleet's demand so the bucket actually
	// sheds frames.
	ovMaxSessions        = 30
	ovBestEffortSessions = 24
	ovDegradeSessions    = 16
	ovShapeRate          = 2_500_000
	// ovLossRate and ovLossDur shape the mid-crowd loss burst.
	ovLossRate = 0.25
	ovLossDur  = 2 * time.Second
)

// ClassOutcome aggregates one traffic class's playback over an overload
// trial.
type ClassOutcome struct {
	Viewers    int    // fleet size
	Watching   int    // in StateWatching or StateFinished at the end
	Finished   int    // completed the movie
	Displayed  uint64 // frames displayed, summed over the fleet
	Stalls     uint64 // display ticks with an empty buffer, summed
	WorstStall uint64 // longest consecutive stall run of any viewer (ticks)
	Skipped    uint64 // frames never displayed (lost/overflowed), summed
	Late       uint64 // frames that arrived behind the display point, summed
	Refusals   uint64 // OK=false OpenReplies received by the fleet
}

// OverloadResult is the harvest of one overload trial.
type OverloadResult struct {
	Reserved   ClassOutcome
	BestEffort ClassOutcome
	// BestEffortProbe is the best-effort fleet's summed Displayed at the
	// 24s probe — after the loss burst healed and any restart settled.
	// Comparing it with the final count is the no-deadlock check: a
	// degraded class must still be moving.
	BestEffortProbe uint64
	// Stats sums every server incarnation's counters (including crashed
	// ones), so admits/refusals/shed/degraded cover the whole cluster.
	Stats server.Stats
}

// OverloadTrial runs the flash-crowd + loss-burst (+ optional restart)
// scenario on the virtual clock and returns per-class outcomes. Everything
// is seeded; the same seed gives a byte-identical run.
func OverloadTrial(cfg OverloadConfig) OverloadResult {
	rt := newWorld(cfg.Seed, netsim.LAN())
	defer rt.release()
	rt.Net.SetEgressLimit("server-1", 100*1000*1000/8)
	rt.Net.SetEgressLimit("server-2", 100*1000*1000/8)

	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: 30 * time.Second, Seed: cfg.Seed})
	rt.deploy(core.DeployOptions{
		Servers:     []string{"server-1", "server-2"},
		Movies:      []*mpeg.Movie{movie},
		MaxSessions: ovMaxSessions,
		Overload: server.OverloadConfig{
			ShapeRate:          ovShapeRate,
			BestEffortSessions: ovBestEffortSessions,
			DegradeSessions:    ovDegradeSessions,
		},
	})
	defer rt.Stop()
	rt.Clk.Advance(500 * time.Millisecond)

	// Both fleets contact only server-1 — server-2 is the takeover peer.
	primary := []string{"server-1"}
	newViewer := func(id string, class wire.Class) *client.Client {
		cc := rt.ClientConfig(id)
		cc.Servers, cc.Class = primary, class
		return rt.watch(cc, movie.ID())
	}
	var reserved, bestEffort []*client.Client
	defer func() {
		for _, c := range reserved {
			c.Close()
		}
		for _, c := range bestEffort {
			c.Close()
		}
	}()

	// t≈1s: reserved viewers settle in, comfortably under every rung.
	rt.Clk.Advance(500 * time.Millisecond)
	for i := 0; i < ovReserved; i++ {
		reserved = append(reserved, newViewer(fmt.Sprintf("res-%02d", i), wire.ClassReserved))
		rt.Clk.Advance(100 * time.Millisecond)
	}

	// t≈6s: the flash crowd bursts onto the same title.
	rt.advanceTo(6 * time.Second)
	for i := 0; i < ovBestEffort; i++ {
		bestEffort = append(bestEffort, newViewer(fmt.Sprintf("be-%02d", i), wire.ClassBestEffort))
		rt.Clk.Advance(5 * time.Millisecond)
	}

	// t=10s: loss burst on every link.
	rt.advanceTo(10 * time.Second)
	rt.Net.SetExtraLoss(ovLossRate)
	rt.Clk.Advance(ovLossDur)
	rt.Net.SetExtraLoss(0)

	if cfg.Restart {
		// t=14s: the primary dies with the full crowd on it; the peer
		// adopts every session (takeover bypasses admission). t=17s: cold
		// restart with an empty catalog — refetch, rejoin, redistribution
		// deals the clients back.
		rt.advanceTo(14 * time.Second)
		if err := rt.CrashServer("server-1"); err != nil {
			panic(err)
		}
		rt.advanceTo(17 * time.Second)
		if err := rt.RestartServer("server-1"); err != nil {
			panic(err)
		}
	}

	// t=24s: post-disruption probe for the no-deadlock check.
	rt.advanceTo(24 * time.Second)
	var probe uint64
	for _, c := range bestEffort {
		probe += c.Counters().Displayed
	}

	// Run long enough for the flash crowd to reach the end of the title.
	rt.advanceTo(40 * time.Second)

	res := OverloadResult{BestEffortProbe: probe}
	res.Reserved = harvestClass(reserved)
	res.BestEffort = harvestClass(bestEffort)
	for _, st := range rt.lifetimeStats() {
		res.Stats = addStats(res.Stats, st)
	}
	return res
}

func harvestClass(fleet []*client.Client) ClassOutcome {
	out := ClassOutcome{Viewers: len(fleet)}
	for _, c := range fleet {
		cnt := c.Counters()
		out.Displayed += cnt.Displayed
		out.Stalls += cnt.Stalls
		out.Skipped += cnt.Skipped()
		out.Late += cnt.Late
		if cnt.MaxStallRun > out.WorstStall {
			out.WorstStall = cnt.MaxStallRun
		}
		switch c.State() {
		case client.StateFinished:
			out.Watching++
			out.Finished++
		case client.StateWatching:
			out.Watching++
		}
		out.Refusals += c.Stats().OpenRefusals
	}
	return out
}
