// Package chaos generates and executes randomized fault schedules against
// a full VoD cluster, then checks the service-level invariants the paper's
// design promises. Everything but the title (one fixed test stream, see
// feature) is driven by a single seed: the same seed produces the same
// schedule, the same simulated network weather, and the same counters — a
// failing seed from CI replays exactly with `vodbench -chaos -seed N`.
//
// The generator is constraint-aware rather than blindly random: it never
// crashes the last server that holds the movie (the paper's guarantee is
// "as long as one server holding the movie survives"), it never restarts a
// server into an active partition (a cold restart must be able to re-fetch
// the movie from a peer), and it always heals the network before the quiet
// tail so the invariant probes measure the settled system, not a fault in
// progress.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind enumerates the fault-schedule operations.
type Kind int

// The schedule operations.
const (
	KindCrash        Kind = iota + 1 // fail-stop the named server
	KindCrashServing                 // fail-stop whichever server serves the client
	KindRestart                      // cold-restart a previously crashed server
	KindAdd                          // bring up a fresh server
	KindPartition                    // split the network into Groups
	KindHeal                         // clear all partitions and link faults
	KindLinkFlap                     // take one link down for Dur, then back up
	KindLossBurst                    // superimpose loss P on every link for Dur
	KindPause                        // pause playback for Dur, then resume
	KindSeek                         // random access to Frame
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindCrashServing:
		return "crash-serving"
	case KindRestart:
		return "restart"
	case KindAdd:
		return "add"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	case KindLinkFlap:
		return "link-flap"
	case KindLossBurst:
		return "loss-burst"
	case KindPause:
		return "pause"
	case KindSeek:
		return "seek"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one scheduled operation.
type Op struct {
	At   time.Duration
	Kind Kind

	Target string     // crash/restart/add: the server ID
	A, B   string     // link-flap: the link's endpoints
	OneWay bool       // link-flap: block only A→B
	Groups [][]string // partition: the isolation groups

	P     float64       // loss-burst probability
	Dur   time.Duration // flap/burst/pause length
	Frame uint32        // seek target
}

// String renders the op for schedule listings.
func (o Op) String() string {
	s := fmt.Sprintf("%7.1fs %-13s", o.At.Seconds(), o.Kind)
	switch o.Kind {
	case KindCrash, KindRestart, KindAdd:
		s += " " + o.Target
	case KindPartition:
		s += fmt.Sprintf(" %v", o.Groups)
	case KindLinkFlap:
		arrow := " <-> "
		if o.OneWay {
			arrow = " -> "
		}
		s += fmt.Sprintf(" %s%s%s for %v", o.A, arrow, o.B, o.Dur)
	case KindLossBurst:
		s += fmt.Sprintf(" p=%.2f for %v", o.P, o.Dur)
	case KindPause:
		s += fmt.Sprintf(" for %v", o.Dur)
	case KindSeek:
		s += fmt.Sprintf(" to frame %d", o.Frame)
	}
	return s
}

// Plan is a complete seeded fault schedule.
type Plan struct {
	Seed int64
	Ops  []Op
}

// The bounds of every generated schedule and the scenario it runs in.
const (
	// servers is the number of servers started at time zero.
	servers = 2
	// maxServers is the server ID pool ceiling: adds and restarts draw
	// from server-1..server-maxServers.
	maxServers = 4
	// windowStart/windowEnd bound the fault window. After windowEnd the
	// schedule heals everything and goes quiet so invariant probes see the
	// settled system.
	windowStart = 8 * time.Second
	windowEnd   = 50 * time.Second
	// maxOps bounds the number of drawn operations (the forced final heal
	// is extra).
	maxOps = 10
	// runTime is the total scenario time: faults delay the paper's 90 s
	// movie, and the tail lets it settle.
	runTime = 100 * time.Second
)

// serverPool returns the full server ID pool.
func serverPool() []string {
	ids := make([]string, maxServers)
	for i := range ids {
		ids[i] = fmt.Sprintf("server-%d", i+1)
	}
	return ids
}

// clientID is the observed client in every chaos scenario.
const clientID = "client-1"

// holderAge is how long a server must have been up before the generator
// trusts it to hold the movie (a cold restart needs a few seconds to
// re-fetch before it can serve).
const holderAge = 5 * time.Second

// genState is the generator's model of the cluster while it draws ops. It
// tracks enough to respect the safety constraints; it does not (cannot)
// know which server actually serves, so crash-serving kills are accounted
// as an "unknown dead" that conservatively discounts the holder count.
type genState struct {
	upSince     map[string]time.Duration
	crashedAt   map[string]time.Duration
	nextAdd     int
	unknownDead int
	partEnd     time.Duration // active partition heals at this instant
	pauseEnd    time.Duration
	lossEnd     time.Duration
}

// holders counts servers presumed to hold the movie at time t.
func (g *genState) holders(t time.Duration) int {
	n := 0
	for _, up := range g.upSince {
		if t-up >= holderAge {
			n++
		}
	}
	return n - g.unknownDead
}

// alive returns the model-live server IDs, sorted for determinism.
func (g *genState) alive() []string {
	ids := make([]string, 0, len(g.upSince))
	for id := range g.upSince {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// restartable returns crashed servers eligible for restart at t, sorted.
func (g *genState) restartable(t time.Duration) []string {
	var ids []string
	for id, at := range g.crashedAt {
		if t-at >= 3*time.Second {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// NewPlan draws a fault schedule from the seed. The same seed always
// produces the identical plan.
func NewPlan(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	pool := serverPool()

	st := &genState{
		upSince:   make(map[string]time.Duration),
		crashedAt: make(map[string]time.Duration),
		nextAdd:   servers,
	}
	for _, id := range pool[:servers] {
		st.upSince[id] = 0
	}

	var ops []Op
	t := windowStart + time.Duration(rng.Intn(2000))*time.Millisecond
	for t < windowEnd && len(ops) < maxOps {
		if op, ok := drawOp(rng, st, pool, t); ok {
			ops = append(ops, op...)
		}
		t += 2*time.Second + time.Duration(rng.Intn(5000))*time.Millisecond
	}

	// Always end with a heal: whatever the draw produced, the quiet tail
	// starts from a connected network.
	ops = append(ops, Op{At: windowEnd + 2*time.Second, Kind: KindHeal})
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return Plan{Seed: seed, Ops: ops}
}

// drawOp picks one feasible operation at time t (a partition draw also
// emits its paired heal). ok is false when the weighted pick landed on an
// op whose preconditions do not hold at t — the slot is simply skipped,
// keeping the schedule shape seed-stable.
func drawOp(rng *rand.Rand, st *genState, pool []string, t time.Duration) ([]Op, bool) {
	inPartition := t < st.partEnd

	// Weighted kinds; infeasible draws skip the slot rather than redraw,
	// so schedules stay sparse under constrained states.
	kinds := []Kind{
		KindCrash, KindCrash,
		KindCrashServing,
		KindRestart, KindRestart, KindRestart,
		KindAdd,
		KindPartition, KindPartition, KindPartition,
		KindLinkFlap, KindLinkFlap,
		KindLossBurst, KindLossBurst,
		KindPause,
		KindSeek,
	}
	kind := kinds[rng.Intn(len(kinds))]

	switch kind {
	case KindCrash:
		alive := st.alive()
		if len(alive) == 0 {
			return nil, false
		}
		target := alive[rng.Intn(len(alive))]
		isHolder := t-st.upSince[target] >= holderAge
		need := 1
		if isHolder {
			need = 2 // the victim is among the holders we count
		}
		if st.holders(t) < need {
			return nil, false
		}
		delete(st.upSince, target)
		st.crashedAt[target] = t
		return []Op{{At: t, Kind: KindCrash, Target: target}}, true

	case KindCrashServing:
		// The victim is unknown to the model; require two trusted holders
		// and discount one of them forever after.
		if st.holders(t) < 2 {
			return nil, false
		}
		st.unknownDead++
		return []Op{{At: t, Kind: KindCrashServing}}, true

	case KindRestart:
		if inPartition {
			return nil, false // a cold restart must be able to reach a peer
		}
		cands := st.restartable(t)
		if len(cands) == 0 {
			return nil, false
		}
		target := cands[rng.Intn(len(cands))]
		delete(st.crashedAt, target)
		st.upSince[target] = t
		return []Op{{At: t, Kind: KindRestart, Target: target}}, true

	case KindAdd:
		if inPartition || st.nextAdd >= maxServers {
			return nil, false
		}
		target := pool[st.nextAdd]
		st.nextAdd++
		st.upSince[target] = t
		return []Op{{At: t, Kind: KindAdd, Target: target}}, true

	case KindPartition:
		if inPartition || t < st.pauseEnd {
			return nil, false
		}
		dur := 3*time.Second + time.Duration(rng.Intn(5000))*time.Millisecond
		var groups [][]string
		if rng.Intn(2) == 0 {
			// Client-cut: the client alone against the whole cluster — the
			// fault only client-side reopen can survive.
			groups = [][]string{{clientID}, append([]string(nil), pool...)}
		} else {
			// Server-split: the client keeps one side; the other side's
			// servers get suspected and their sessions taken over.
			sideA, sideB := []string{clientID}, []string(nil)
			for _, id := range pool {
				if rng.Intn(2) == 0 {
					sideA = append(sideA, id)
				} else {
					sideB = append(sideB, id)
				}
			}
			if len(sideB) == 0 {
				sideB = append(sideB, sideA[len(sideA)-1])
				sideA = sideA[:len(sideA)-1]
			}
			groups = [][]string{sideA, sideB}
		}
		st.partEnd = t + dur
		return []Op{
			{At: t, Kind: KindPartition, Groups: groups, Dur: dur},
			{At: t + dur, Kind: KindHeal},
		}, true

	case KindLinkFlap:
		dur := 500*time.Millisecond + time.Duration(rng.Intn(1500))*time.Millisecond
		alive := st.alive()
		if rng.Intn(3) == 0 || len(alive) < 2 {
			// Client-side flap: always bidirectional. (A one-way cut of only
			// the client's outbound control path starves the flow-control
			// loop while frames keep arriving — a QoS hit by design, not a
			// bug the invariants should flag.)
			if len(alive) == 0 {
				return nil, false
			}
			b := alive[rng.Intn(len(alive))]
			return []Op{{At: t, Kind: KindLinkFlap, A: clientID, B: b, Dur: dur}}, true
		}
		i := rng.Intn(len(alive))
		j := rng.Intn(len(alive) - 1)
		if j >= i {
			j++
		}
		return []Op{{At: t, Kind: KindLinkFlap,
			A: alive[i], B: alive[j], OneWay: rng.Intn(2) == 0, Dur: dur}}, true

	case KindLossBurst:
		if t < st.lossEnd {
			return nil, false
		}
		dur := time.Second + time.Duration(rng.Intn(3000))*time.Millisecond
		st.lossEnd = t + dur
		return []Op{{At: t, Kind: KindLossBurst,
			P: 0.2 + 0.3*rng.Float64(), Dur: dur}}, true

	case KindPause:
		if inPartition || t < st.pauseEnd || t < 12*time.Second {
			return nil, false
		}
		dur := time.Second + time.Duration(rng.Intn(2000))*time.Millisecond
		st.pauseEnd = t + dur
		return []Op{{At: t, Kind: KindPause, Dur: dur}}, true

	case KindSeek:
		if inPartition || t < 12*time.Second {
			return nil, false
		}
		return []Op{{At: t, Kind: KindSeek, Frame: uint32(rng.Intn(2200))}}, true
	}
	return nil, false
}
