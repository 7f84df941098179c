package chaos

import (
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/sim"
)

// Report is the outcome of one executed schedule: the plan, the checked
// invariants, and the headline counters for a human reading a failure.
type Report struct {
	Seed       int64
	Plan       Plan
	Violations []string

	Displayed  uint64
	GapSkipped uint64
	Stalls     uint64
	Reopens    uint64
	Takeovers  uint64
	Finished   bool
	Owners     int // serving servers at the settle probe
}

// verdict returns the report's seed and whether every invariant held.
func (r *Report) verdict() (int64, bool) { return r.Seed, len(r.Violations) == 0 }

// Write renders the report (schedule, counters, verdict).
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "chaos seed %d: %d ops\n", r.Seed, len(r.Plan.Ops))
	for _, op := range r.Plan.Ops {
		fmt.Fprintf(w, "  %s\n", op)
	}
	fmt.Fprintf(w, "  displayed=%d gap_skipped=%d stalls=%d reopens=%d takeovers=%d finished=%v owners=%d\n",
		r.Displayed, r.GapSkipped, r.Stalls, r.Reopens, r.Takeovers, r.Finished, r.Owners)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  OK: all invariants held\n")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// feature generates the title every chaos schedule streams: the paper's
// default test stream (90s, 1.4 Mbps, 30 fps; content seed 0). The seed of
// a chaos run picks the fault schedule and the network weather — not the
// content, so a sweep generates the title once and every schedule shares
// the one immutable Movie.
func feature() *mpeg.Movie { return mpeg.Generate("feature", mpeg.StreamConfig{}) }

// Execute runs the plan against a fresh cluster streaming the chaos title
// and checks the paper's service-level invariants over the result:
//
//   - safety: the overflow policy never discards an I frame;
//   - safety: after the network heals and the cluster settles, at most one
//     server serves the client (exactly one unless the movie finished);
//   - liveness: playback makes progress after the last fault heals — the
//     movie finishes or the displayed count keeps growing through the tail;
//   - sanity: the cumulative stall series is monotone.
func Execute(plan Plan) *Report { return execute(plan, feature()) }

// execute is Execute on the caller's copy of the chaos title (Sweep passes
// every seed the same one).
func execute(plan Plan, movie *mpeg.Movie) *Report {
	pool := serverPool()

	var (
		displayedMid uint64
		owners       int
		endState     client.State
	)
	events := make([]sim.Event, 0, len(plan.Ops)+2)
	for _, op := range plan.Ops {
		op := op
		events = append(events, sim.Event{At: op.At, Do: func(rt *sim.Runtime) { apply(op, rt) }})
	}
	// Liveness probe: well after the forced heal (reopen backoff may sleep
	// up to ~10s past it), but long before the movie can possibly finish.
	events = append(events, sim.Event{At: windowEnd + 12*time.Second, Do: func(rt *sim.Runtime) {
		if c := rt.Client(); c != nil {
			displayedMid = c.Counters().Displayed
		}
	}})
	// Settle probe: ownership at the very end of the quiet tail.
	events = append(events, sim.Event{At: runTime - 500*time.Millisecond, Do: func(rt *sim.Runtime) {
		owners = 0
		rt.EachServer(func(_ string, s *server.Server) {
			if s.HasSession(clientID) {
				owners++
			}
		})
		if c := rt.Client(); c != nil {
			endState = c.State()
		}
	}})

	res := sim.Run(sim.Scenario{
		Name:     fmt.Sprintf("chaos-seed-%d", plan.Seed),
		Profile:  netsim.LAN(),
		Seed:     plan.Seed,
		Feature:  movie,
		Servers:  pool[:servers],
		Peers:    pool,
		ClientID: clientID,
		Duration: runTime,
		Events:   events,
		Record:   sim.Stalls,
	})

	rep := &Report{
		Seed:       plan.Seed,
		Plan:       plan,
		Displayed:  res.Final.Displayed,
		GapSkipped: res.Final.GapSkipped,
		Stalls:     res.Final.Stalls,
		Reopens:    res.ClientStats.Reopens,
		Finished:   endState == client.StateFinished,
		Owners:     owners,
	}
	for _, reg := range res.Obs {
		rep.Takeovers += reg.Value("server.takeovers")
	}

	if n := res.Final.OverflowDroppedI; n != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("safety: overflow policy discarded %d I frames", n))
	}
	if owners > 1 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("safety: %d servers serve the client after settling", owners))
	}
	if !rep.Finished && owners != 1 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("convergence: %d serving servers for an unfinished movie after settling", owners))
	}
	if !rep.Finished && res.Final.Displayed <= displayedMid {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("liveness: playback stuck at %d displayed frames since the post-heal probe", displayedMid))
	}
	prev := 0.0
	for _, v := range res.StallsCum.Values {
		if v < prev {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("sanity: cumulative stall series decreased (%v -> %v)", prev, v))
			break
		}
		prev = v
	}
	return rep
}

// apply executes one op on the live cluster. Infeasible ops (a target that
// is already dead, a client not yet watching) degrade to no-ops: schedules
// are generated against a model, and the model is allowed to be wrong about
// details as long as the invariants hold.
func apply(op Op, rt *sim.Runtime) {
	switch op.Kind {
	case KindCrash:
		_ = rt.CrashServer(op.Target)
	case KindCrashServing:
		rt.CrashServing()
	case KindRestart:
		_ = rt.RestartServer(op.Target)
	case KindAdd:
		_ = rt.AddServer(op.Target)
	case KindPartition:
		rt.Partition(op.Groups...)
	case KindHeal:
		rt.HealNetwork()
	case KindLinkFlap:
		if op.OneWay {
			rt.SetLinkOneWay(op.A, op.B, true)
			rt.Clk.AfterFunc(op.Dur, func() { rt.SetLinkOneWay(op.A, op.B, false) })
		} else {
			rt.SetLink(op.A, op.B, true)
			rt.Clk.AfterFunc(op.Dur, func() { rt.SetLink(op.A, op.B, false) })
		}
	case KindLossBurst:
		rt.LossBurst(op.P, op.Dur)
	case KindPause:
		c := rt.Client()
		if c == nil {
			return
		}
		if err := c.Pause(); err != nil {
			return
		}
		rt.Clk.AfterFunc(op.Dur, func() { _ = c.Resume() })
	case KindSeek:
		if c := rt.Client(); c != nil {
			_ = c.Seek(op.Frame)
		}
	}
}
