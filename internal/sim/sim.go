// Package sim is the experiment harness: it puts a core.Deployment on a
// virtual clock and a simulated network, runs the scripted scenarios of the
// paper's evaluation against it, and samples the quantities its caller
// asks for. A 90-second scenario executes in milliseconds and is exactly
// reproducible from its seed.
package sim

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flowctl"
	"repro/internal/metrics"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// Event is one scripted action at a point in scenario time.
type Event struct {
	At time.Duration
	// Label annotates the event in figure output ("crash", "load
	// balance"); unlabeled events are not annotated.
	Label string
	Do    func(rt *Runtime)
}

// Annotation marks a scripted event on a figure's time axis.
type Annotation struct {
	At    time.Duration
	Label string
}

// Scenario scripts one experiment run.
type Scenario struct {
	// Name labels the run in output.
	Name string
	// Profile is the network profile (netsim.LAN() or netsim.WAN()).
	Profile netsim.Profile
	// Seed drives all randomness.
	Seed int64
	// Movie parameters; zero values take the paper's stream (90s,
	// 1.4 Mbps, 30 fps). When Feature is nil, Run overwrites Movie.Seed
	// with Seed: the scenario seed picks the generated content too.
	Movie mpeg.StreamConfig
	// Feature, when set, is the movie to stream, and Movie is ignored: a
	// chaos sweep streams one title under every schedule's seed. Run
	// generates the movie itself when nil; mpeg hands a repeat Generate the
	// title the process already holds.
	Feature *mpeg.Movie
	// Servers are started at time zero. Peers lists the servers that may
	// join later (AddServer targets in Events); naming a started one again
	// is harmless.
	Servers []string
	Peers   []string
	// ClientID is the observed client (default "client-1"). It opens the
	// movie at clientStart.
	ClientID string
	// Flow is the client's buffer and flow control, which the servers
	// share (paper defaults if zero). A scenario that varies one setting
	// starts from flowctl.DefaultParams.
	Flow flowctl.Params
	// SyncInterval overrides the servers' state-sync period (default
	// 500ms — the paper's value).
	SyncInterval time.Duration
	// Events are the scripted actions (crashes, server additions, VCR).
	Events []Event
	// Duration is the total simulated time (default: movie duration).
	Duration time.Duration
	// Record names the Result series to sample; the others stay nil, and
	// with none named Run arms no sampler.
	Record Signals
	// SampleEvery is the metric sampling period (default 100ms).
	SampleEvery time.Duration
}

// Signals is a set of Result series, one bit per series.
type Signals uint16

const (
	Skipped  Signals = 1 << iota // Result.SkippedCum
	Late                         // Result.LateCum
	Overflow                     // Result.OverflowCum
	Stalls                       // Result.StallsCum
	SW                           // Result.SWOccupancy
	HW                           // Result.HWOccupancy
	Combined                     // Result.Combined
	Serving                      // Result.ServingServer
	Video                        // Result.VideoBytesCum
)

// epoch is time zero of every simulated world.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Runtime is a simulated world — virtual clock, simulated network — and the
// deployment running on it. It adds to core.Deployment only what exists in
// simulation: fail-stop crashes and network faults, the counters of crashed
// incarnations, and per-node obs registries on the virtual clock.
type Runtime struct {
	Clk *clock.Virtual
	Net *netsim.Network
	*core.Deployment

	// Run's observed client and its ID.
	clientID string
	client   *client.Client

	// retired accumulates the final stats of crashed servers so totals
	// (video bytes, sync bytes) survive the crash.
	retired map[string]server.Stats

	// regs holds one obs registry per node (servers, the client, and the
	// pseudo-node "net" for the simulator itself). Registries outlive
	// crashes so a crashed server's counters still appear in the report.
	regs map[string]*obs.Registry
}

// spares holds finished worlds' clocks and networks, each pair in a Runtime
// of its own, for newWorld to reuse: at most GOMAXPROCS, in a plain slice
// rather than a sync.Pool (DESIGN §8). unquiet counts worlds release refused.
var spares struct {
	sync.Mutex
	worlds  []*Runtime
	unquiet int
}

// newWorld makes (or reuses) the clock and network of a simulated run; deploy
// puts the cluster on them. Callers defer release first, to run it last.
func newWorld(seed int64, profile netsim.Profile) *Runtime {
	rt := &Runtime{}
	spares.Lock()
	if k := len(spares.worlds) - 1; k >= 0 {
		rt, spares.worlds[k], spares.worlds = spares.worlds[k], nil, spares.worlds[:k]
	}
	spares.Unlock()
	if rt.Clk == nil {
		rt.Clk = clock.NewVirtual(epoch)
		rt.Net = netsim.New(rt.Clk, seed, profile)
	} else {
		rt.Net.Reset(seed, profile) // release left the clock at epoch
	}
	rt.retired, rt.regs = make(map[string]server.Stats), make(map[string]*obs.Registry)
	return rt
}

// release hands the world's clock and network to a later newWorld; nothing
// built on the world may be touched after it. Resetting both drops what the
// run left in them. Only a quiescent world is reused: no endpoint open, no
// AfterFunc or Periodic timer armed (Reset reclaims pending deliveries).
func (rt *Runtime) release() {
	armed := rt.Clk.Reset(epoch)
	open := rt.Net.Reset(0, netsim.Profile{})
	spares.Lock()
	defer spares.Unlock()
	switch {
	case armed > 0 || open > 0:
		spares.unquiet++
	case len(spares.worlds) < runtime.GOMAXPROCS(0):
		spares.worlds = append(spares.worlds, &Runtime{Clk: rt.Clk, Net: rt.Net})
	}
}

// deploy starts the cluster opts describes on the world's clock and network.
func (rt *Runtime) deploy(opts core.DeployOptions) {
	opts.Clock, opts.Network = rt.Clk, rt.Net
	dep, err := core.Deploy(opts)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	rt.Deployment = dep
}

// watch starts a viewer of the deployment on movieID.
func (rt *Runtime) watch(cfg core.ClientConfig, movieID string) *client.Client {
	c, err := core.NewClient(cfg)
	if err != nil {
		panic(fmt.Sprintf("sim: creating client: %v", err))
	}
	if err := c.Watch(movieID); err != nil {
		c.Close()
		panic(fmt.Sprintf("sim: watch: %v", err))
	}
	return c
}

// advanceTo advances the clock to the given offset from the epoch (no-op
// when already past it).
func (rt *Runtime) advanceTo(offset time.Duration) {
	if d := offset - rt.elapsed(); d > 0 {
		rt.Clk.Advance(d)
	}
}

// registry returns (creating on first use) the obs registry for a node.
// Timestamps come from the virtual clock, so traces are deterministic.
func (rt *Runtime) registry(node string) *obs.Registry {
	reg := rt.regs[node]
	if reg == nil {
		reg = obs.NewRegistry(node, rt.Clk.Now)
		rt.regs[node] = reg
	}
	return reg
}

// Result carries every series and counter the figures and tables need. A
// series is nil unless the scenario's Record names it.
type Result struct {
	Name string

	// Cumulative client-side series (Figures 4a, 4b, 5a, 5b).
	SkippedCum  *metrics.Series // frames not displayed (gap + overflow)
	LateCum     *metrics.Series // late/duplicate frames
	OverflowCum *metrics.Series // overflow-discarded frames
	StallsCum   *metrics.Series // display stalls

	// Occupancy series (Figures 4c, 4d).
	SWOccupancy *metrics.Series // software buffer, frames
	HWOccupancy *metrics.Series // hardware buffer, bytes
	Combined    *metrics.Series // combined occupancy, frames

	// ServingServer samples which server holds the session (by index in
	// sorted server names; -1 when none) — used to measure takeover.
	ServingServer *metrics.Series

	// VideoBytesCum samples total video bytes sent by all servers, for
	// bandwidth/overhead accounting.
	VideoBytesCum *metrics.Series

	// Duration is the resolved simulated time the run covered.
	Duration time.Duration

	Final        buffer.Counters
	ClientJitter time.Duration // smoothed inter-arrival jitter at scenario end
	ClientStats  client.Stats
	ServerStats  map[string]server.Stats
	Flow         flowctl.Params
	// Annotations are the scenario's labeled events, for figure output.
	Annotations []Annotation

	// Obs holds the run's per-node observability registries, keyed by node
	// ID (server IDs, the client ID, and "net" for the simulator). Nothing
	// writes to them once Run returns; their snapshots are deterministic for
	// a given scenario and seed.
	Obs map[string]*obs.Registry
}

// CrashServer fail-stops a server. Stats accumulate in retired across
// repeated crash/restart cycles of the same ID.
func (rt *Runtime) CrashServer(id string) error {
	s := rt.Server(id)
	if s == nil {
		return fmt.Errorf("sim: no server %q to crash", id)
	}
	rt.retired[id] = addStats(rt.retired[id], s.Stats())
	rt.StopServer(id)
	rt.Net.Crash(transport.Addr(id))
	return nil
}

// CrashServing fail-stops whichever server currently serves the client and
// reports whether one was crashed. Mid-takeover no server may hold the
// session; the no-op leaves a trace event so a schedule replay shows it.
func (rt *Runtime) CrashServing() bool {
	id := rt.Deployment.ServingServer(rt.clientID)
	if id == "" {
		rt.registry("net").Emit(obs.SimCrashServingNoop, "", "", 0, 0)
		return false
	}
	_ = rt.CrashServer(id)
	return true
}

// Partition splits the network into isolated groups; nodes not listed keep
// their connectivity within the residual group (see netsim.Partition).
func (rt *Runtime) Partition(groups ...[]string) {
	conv := make([][]transport.Addr, len(groups))
	for i, g := range groups {
		for _, a := range g {
			conv[i] = append(conv[i], transport.Addr(a))
		}
	}
	rt.Net.Partition(conv...)
}

// HealNetwork clears every partition and link-down fault.
func (rt *Runtime) HealNetwork() { rt.Net.Heal() }

// SetLink takes the bidirectional link between a and b down (or back up).
func (rt *Runtime) SetLink(a, b string, down bool) {
	rt.Net.SetLinkDown(transport.Addr(a), transport.Addr(b), down)
}

// SetLinkOneWay takes only the from→to direction down (or back up) — the
// asymmetric fault that breaks naive failure detectors.
func (rt *Runtime) SetLinkOneWay(from, to string, down bool) {
	rt.Net.SetLinkOneWayDown(transport.Addr(from), transport.Addr(to), down)
}

// LossBurst superimposes extra random loss p on every link for dur, then
// clears it — a correlated loss episode (§2's best-effort network at its
// worst) rather than a topological fault.
func (rt *Runtime) LossBurst(p float64, dur time.Duration) {
	rt.Net.SetExtraLoss(p)
	rt.Clk.Schedule(dur, func() { rt.Net.SetExtraLoss(0) })
}

// addStats sums two server stat snapshots field by field.
func addStats(a, b server.Stats) server.Stats {
	a.FramesSent += b.FramesSent
	a.VideoBytes += b.VideoBytes
	a.SyncMessages += b.SyncMessages
	a.SyncBytes += b.SyncBytes
	a.SessionsOpened += b.SessionsOpened
	a.Takeovers += b.Takeovers
	a.Releases += b.Releases
	a.Emergencies += b.Emergencies
	a.FramesThinned += b.FramesThinned
	a.AdmitsReserved += b.AdmitsReserved
	a.AdmitsBestEffort += b.AdmitsBestEffort
	a.RefusalsReserved += b.RefusalsReserved
	a.RefusalsBestEffort += b.RefusalsBestEffort
	a.ShedTokens += b.ShedTokens
	a.DegradedFrames += b.DegradedFrames
	return a
}

// lifetimeStats returns every server's counters summed over all of its
// incarnations, crashed and running.
func (rt *Runtime) lifetimeStats() map[string]server.Stats {
	out := maps.Clone(rt.retired)
	rt.EachServer(func(id string, s *server.Server) { out[id] = addStats(out[id], s.Stats()) })
	return out
}

// Client returns the observed client.
func (rt *Runtime) Client() *client.Client { return rt.client }

// elapsed returns the scenario time.
func (rt *Runtime) elapsed() time.Duration { return rt.Clk.Now().Sub(epoch) }

// clientStart is when the observed client opens the movie: after the
// server group settles.
const clientStart = time.Second

func (sc *Scenario) fillDefaults() {
	if sc.ClientID == "" {
		sc.ClientID = "client-1"
	}
	if sc.SampleEvery <= 0 {
		sc.SampleEvery = 100 * time.Millisecond
	}
	if sc.Flow == (flowctl.Params{}) {
		sc.Flow = flowctl.DefaultParams()
	}
}

// Run executes the scenario and returns its result.
func Run(sc Scenario) *Result {
	sc.fillDefaults()
	movie := sc.Feature
	if movie == nil {
		sc.Movie.Seed = sc.Seed
		movie = mpeg.Generate("feature", sc.Movie)
	}
	if sc.Duration <= 0 {
		sc.Duration = movie.Duration()
	}

	rt := newWorld(sc.Seed, sc.Profile)
	defer rt.release()
	rt.clientID = sc.ClientID
	rt.Net.SetObs(rt.registry("net"))
	rt.deploy(core.DeployOptions{
		Servers:      sc.Servers,
		ExtraPeers:   sc.Peers,
		Movies:       []*mpeg.Movie{movie},
		Flow:         sc.Flow,
		SyncInterval: sc.SyncInterval,
		Obs:          rt.registry,
	})
	clk := rt.Clk

	// The sampler below adds one point per recorded series per SampleEvery.
	samples := int(sc.Duration/sc.SampleEvery) + 1
	series := func(sig Signals, name string) *metrics.Series {
		if sc.Record&sig == 0 {
			return nil
		}
		s := metrics.NewSeries(name, sc.SampleEvery)
		s.Grow(samples)
		return s
	}
	res := &Result{
		Name:          sc.Name,
		Duration:      sc.Duration,
		SkippedCum:    series(Skipped, "skipped frames (cumulative)"),
		LateCum:       series(Late, "late frames (cumulative)"),
		OverflowCum:   series(Overflow, "frames discarded due to overflow (cumulative)"),
		StallsCum:     series(Stalls, "display stalls (cumulative)"),
		SWOccupancy:   series(SW, "software buffer occupancy (frames)"),
		HWOccupancy:   series(HW, "hardware buffer occupancy (bytes)"),
		Combined:      series(Combined, "combined buffer occupancy (frames)"),
		ServingServer: series(Serving, "serving server (index; -1 none)"),
		VideoBytesCum: series(Video, "video bytes sent (cumulative)"),
		Flow:          sc.Flow,
	}

	// Client creation and open.
	clk.Schedule(clientStart, func() {
		rt.client = rt.watch(rt.ClientConfig(sc.ClientID), movie.ID())
	})

	// Scripted events.
	for _, ev := range sc.Events {
		ev := ev
		clk.Schedule(ev.At, func() { ev.Do(rt) })
		if ev.Label != "" {
			res.Annotations = append(res.Annotations, Annotation{At: ev.At, Label: ev.Label})
		}
	}

	// Metric sampling, of the recorded series only. The sampler just reads
	// state, so what a run records never changes what happens in it. A
	// server is plotted as its index in the sorted contact list, which is
	// fixed for the whole run.
	if sc.Record != 0 {
		peers := rt.Peers()
		var sampler clock.Periodic
		sampler.Start(clk, sc.SampleEvery, sc.SampleEvery, func() {
			t := rt.elapsed()
			if rt.client != nil {
				cnt, occ := rt.client.Counters(), rt.client.Occupancy()
				res.SkippedCum.Add(t, float64(cnt.Skipped()))
				res.LateCum.Add(t, float64(cnt.Late))
				res.OverflowCum.Add(t, float64(cnt.OverflowDropped))
				res.StallsCum.Add(t, float64(cnt.Stalls))
				res.SWOccupancy.Add(t, float64(occ.SoftwareFrames))
				res.HWOccupancy.Add(t, float64(occ.HardwareBytes))
				res.Combined.Add(t, float64(occ.CombinedFrames))
			}
			if res.ServingServer != nil {
				i, ok := slices.BinarySearch(peers, rt.Deployment.ServingServer(rt.clientID))
				if !ok {
					i = -1
				}
				res.ServingServer.Add(t, float64(i))
			}
			if res.VideoBytesCum != nil {
				var vb uint64
				for _, st := range rt.retired {
					vb += st.VideoBytes
				}
				rt.EachServer(func(_ string, s *server.Server) { vb += s.Stats().VideoBytes })
				res.VideoBytesCum.Add(t, float64(vb))
			}
		})
		defer sampler.Stop()
	}
	clk.Advance(sc.Duration)

	if rt.client != nil {
		res.Final = rt.client.Counters()
		res.ClientStats = rt.client.Stats()
		res.ClientJitter = rt.client.Jitter()
		rt.client.Close()
	}
	res.ServerStats = rt.lifetimeStats()
	rt.Stop()
	res.Obs = rt.regs
	return res
}
