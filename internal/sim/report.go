package sim

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/flowctl"
	"repro/internal/metrics"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/tiger"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Write renders the table as aligned text.
func (t Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// figureRuns returns the figure table's runs: 0 is LAN, 1 is WAN.
func figureRuns(seed int64) []Scenario { return []Scenario{LANScenario(seed), WANScenario(seed)} }

// figures is the figure table, in paper order: each figure's run, the
// signal that run records for it and the series it plots.
var figures = []struct {
	id     string
	run    int // index into figureRuns
	signal Signals
	series func(*Result) *metrics.Series
}{
	{"4a", 0, Skipped, func(r *Result) *metrics.Series { return r.SkippedCum }},
	{"4b", 0, Late, func(r *Result) *metrics.Series { return r.LateCum }},
	{"4c", 0, SW, func(r *Result) *metrics.Series { return r.SWOccupancy }},
	{"4d", 0, HW, func(r *Result) *metrics.Series { return r.HWOccupancy }},
	{"5a", 1, Skipped, func(r *Result) *metrics.Series { return r.SkippedCum }},
	{"5b", 1, Overflow, func(r *Result) *metrics.Series { return r.OverflowCum }},
}

// FigureIDs lists the reproducible figures in paper order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figures runs the two evaluation scenarios and returns every figure's
// series keyed by figure ID, plus each figure's event annotations. The
// LAN and WAN runs are independent, so they execute in parallel (see
// SetParallelism); the series are identical either way.
func Figures(seed int64) (map[string]*metrics.Series, map[string][]Annotation) {
	scenarios := figureRuns(seed)
	for _, f := range figures {
		scenarios[f.run].Record |= f.signal
	}
	runs := fanOut(len(scenarios), func(i int) *Result { return Run(scenarios[i]) })
	series := make(map[string]*metrics.Series, len(figures))
	ann := make(map[string][]Annotation, len(figures))
	for _, f := range figures {
		series[f.id] = f.series(runs[f.run])
		ann[f.id] = runs[f.run].Annotations
	}
	return series, ann
}

// Figure returns one figure's series and its event annotations.
func Figure(id string, seed int64) (*metrics.Series, []Annotation, error) {
	for _, f := range figures {
		if f.id == id {
			sc := figureRuns(seed)[f.run]
			sc.Record = f.signal
			res := Run(sc)
			return f.series(res), res.Annotations, nil
		}
	}
	return nil, nil, fmt.Errorf("sim: unknown figure %q (have %v)", id, FigureIDs())
}

// TableIDs lists the reproducible tables.
func TableIDs() []string {
	return []string{
		"flowctl", "emergency", "sync", "takeover", "faults",
		"buffersweep", "emergencysweep", "syncsweep", "discard", "qos",
		"capacity", "obs",
	}
}

// TableByID dispatches to the table generators.
func TableByID(id string, seed int64) (Table, error) {
	switch id {
	case "flowctl":
		return tableFlowControl(), nil
	case "emergency":
		return tableEmergency(seed), nil
	case "sync":
		return tableSyncOverhead(seed), nil
	case "takeover":
		return tableTakeover(5), nil
	case "faults":
		return tableFaultTolerance(seed), nil
	case "buffersweep":
		return tableBufferSweep(seed), nil
	case "emergencysweep":
		return tableEmergencySweep(seed), nil
	case "syncsweep":
		return tableSyncSweep(seed), nil
	case "discard":
		return tableDiscard(seed), nil
	case "qos":
		return tableQoS(seed), nil
	case "capacity":
		return tableCapacity(seed), nil
	case "scale":
		// Not listed in TableIDs: -table all and -list keep their exact
		// pre-§12 byte output; the two-tier table is opt-in by name.
		return tableScale(seed, scalePoints), nil
	case "obs":
		return tableObservability(seed), nil
	default:
		return Table{}, fmt.Errorf("sim: unknown table %q (have %v)", id, TableIDs())
	}
}

// tableFlowControl reprints the paper's Figure 2 policy table and verifies
// each row against a live Policy instance.
func tableFlowControl() Table {
	p := flowctl.DefaultParams()
	type row struct {
		desc string
		occs []int // drive the policy with these occupancies
		want string
	}
	rows := []row{
		{"0 .. critical threshold − 1", occs(5, p.UrgentEvery), "emergency"},
		{"critical threshold .. low water − 1", occs(40, p.UrgentEvery), "increase"},
		{"low..high, occupancy < previous", append(occs(60, p.NormalEvery), occs(58, p.NormalEvery)...), "increase"},
		{"low..high, occupancy > previous", append(occs(58, p.NormalEvery), occs(60, p.NormalEvery)...), "decrease"},
		{"high water .. full", occs(70, p.UrgentEvery), "decrease"},
	}
	t := Table{
		ID:     "Tbl FC",
		Title:  "flow-control policy (paper Figure 2), verified live",
		Header: []string{"buffer occupancy", "check freq", "request", "verified"},
	}
	for _, r := range rows {
		pol := flowctl.NewPolicy(p)
		var last string
		for _, occ := range r.occs {
			// The software buffer holds roughly half the combined
			// occupancy at steady state.
			if k, ok := pol.OnFrame(occ, occ/2); ok {
				last = flowName(k)
			}
		}
		freq := "f_urgent"
		if strings.HasPrefix(r.desc, "low..high") {
			freq = "f_normal"
		}
		verified := "OK"
		if last != r.want {
			verified = fmt.Sprintf("MISMATCH (got %s)", last)
		}
		t.Rows = append(t.Rows, []string{r.desc, freq, r.want, verified})
	}
	return t
}

func occs(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func flowName(k wire.FlowKind) string {
	switch k {
	case wire.FlowIncrease:
		return "increase"
	case wire.FlowDecrease:
		return "decrease"
	case wire.FlowEmergencyMinor, wire.FlowEmergencyMajor:
		return "emergency"
	default:
		return k.String()
	}
}

// tableEmergency reports the decaying emergency sequences (§4.1) and the
// measured peak bandwidth boost during the LAN crash recovery.
func tableEmergency(seed int64) Table {
	sc := LANScenario(seed)
	sc.Record = Video
	res := Run(sc)
	crashAt, _ := EventTimesLAN()

	// Peak 1-second send rate during the emergency burst right after the
	// takeover (the decaying quantity dominates the first ~3s; the later
	// base-rate climb is ordinary Figure 2 flow control, outside the
	// §4.1 bound).
	var peak float64
	for w := crashAt; w < crashAt+3500*time.Millisecond; w += 100 * time.Millisecond {
		rate := res.VideoBytesCum.At(w+time.Second) - res.VideoBytesCum.At(w)
		if rate > peak {
			peak = rate
		}
	}
	mean := res.VideoBytesCum.Last() / res.VideoBytesCum.Time(res.VideoBytesCum.Len()-1).Seconds()
	boost := 0.0
	if mean > 0 {
		boost = (peak - mean) / mean * 100
	}

	return Table{
		ID:     "Tbl E",
		Title:  "emergency refill mechanism (§4.1)",
		Header: []string{"quantity", "value", "paper"},
		Rows: [][]string{
			{"base q (occupancy < 15%)", "12 frames/s", "12"},
			{"base q (occupancy < 30%)", "6 frames/s", "6"},
			{"decay factor f", "0.8 per second", "0.8"},
			{"total extra frames (q=12)", strconv.Itoa(flowctl.EmergencyTotal(12, 0.8)), "43"},
			{"total extra frames (q=6)", strconv.Itoa(flowctl.EmergencyTotal(6, 0.8)), "15"},
			{"measured peak boost after crash", fmt.Sprintf("+%.0f%% of mean bandwidth", boost), "≤ +40%"},
		},
	}
}

// tableSyncOverhead reports the state-sync bandwidth share (§1: "less than
// one thousandth of the total communication bandwidth").
func tableSyncOverhead(seed int64) Table {
	res := Run(LANScenario(seed))
	var video, sync, msgs uint64
	for _, st := range res.ServerStats {
		video += st.VideoBytes
		sync += st.SyncBytes
		msgs += st.SyncMessages
	}
	ratio := float64(sync) / float64(video)
	return Table{
		ID:     "Tbl S",
		Title:  "server state-synchronization overhead (90s LAN run)",
		Header: []string{"quantity", "measured", "paper"},
		Rows: [][]string{
			{"sync messages", strconv.FormatUint(msgs, 10), "every 0.5s per server"},
			{"sync bytes", strconv.FormatUint(sync, 10), "a few dozen bytes/client"},
			{"video bytes", strconv.FormatUint(video, 10), "~1.4 Mbps stream"},
			{"overhead ratio", fmt.Sprintf("%.6f", ratio), "< 0.001"},
		},
	}
}

// tableTakeover reports crash-takeover latency over several trials
// (paper: "the take over time was half a second on the average").
func tableTakeover(trials int) Table {
	t := Table{
		ID:     "Tbl T",
		Title:  "crash takeover time on a LAN",
		Header: []string{"trial", "takeover"},
	}
	// Every trial is its own cluster and seed; fan them across cores.
	durs := fanOut(trials, func(i int) time.Duration { return TakeoverTrial(int64(i + 1)) })
	var total time.Duration
	for i, d := range durs {
		total += d
		t.Rows = append(t.Rows, []string{strconv.Itoa(i + 1), d.String()})
	}
	avg := total / time.Duration(trials)
	t.Rows = append(t.Rows, []string{"average", avg.String() + " (paper: ≈0.5s)"})
	return t
}

// tableFaultTolerance contrasts replication-k failover with Tiger-style
// striping (§7): replication tolerates k−1 arbitrary failures; Tiger
// masks one failure but loses blocks when two adjacent cubs die.
func tableFaultTolerance(seed int64) Table {
	t := Table{
		ID:     "Tbl K",
		Title:  "failures tolerated: replication-k vs Tiger striping (§7)",
		Header: []string{"system", "failures", "frames lost", "verdict"},
	}

	// Replication k=3: two sequential failures.
	repl := Run(Scenario{
		Name:    "repl-k3",
		Profile: netsim.LAN(),
		Seed:    seed,
		Servers: []string{"server-1", "server-2", "server-3"},
		Events: []Event{
			{At: 20 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
			{At: 40 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
		},
	})
	t.Rows = append(t.Rows, []string{
		"VoD replication k=3", "2 sequential",
		strconv.FormatUint(repl.Final.Skipped(), 10),
		verdict(repl.Final.Skipped() < 100 && repl.Final.Displayed > 2300),
	})

	// Replication k=2: a single failure is fine; a second ends service.
	repl2 := Run(Scenario{
		Name:    "repl-k2",
		Profile: netsim.LAN(),
		Seed:    seed,
		Servers: []string{"server-1", "server-2"},
		Events: []Event{
			{At: 20 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
		},
	})
	t.Rows = append(t.Rows, []string{
		"VoD replication k=2", "1",
		strconv.FormatUint(repl2.Final.Skipped(), 10),
		verdict(repl2.Final.Skipped() < 100 && repl2.Final.Displayed > 2300),
	})

	// Tiger with 4 cubs, mirroring 2.
	for _, tc := range []struct {
		label   string
		crashes []string
	}{
		{"1", []string{"cub-1"}},
		{"2 adjacent", []string{"cub-0", "cub-1"}},
		{"2 non-adjacent", []string{"cub-0", "cub-2"}},
	} {
		lost, displayed := tigerTrial(seed, tc.crashes)
		ok := lost < 100 && displayed > 2000
		t.Rows = append(t.Rows, []string{
			"Tiger striping (4 cubs, 2 copies)", tc.label,
			strconv.FormatUint(lost, 10),
			verdict(ok),
		})
	}
	return t
}

func verdict(ok bool) string {
	if ok {
		return "service continuous"
	}
	return "video impaired"
}

// tigerTrial runs a 90s Tiger stream, crashing the given cubs at 20s and
// 40s, and returns (frames lost, frames displayed).
func tigerTrial(seed int64, crashes []string) (lost, displayed uint64) {
	world := newWorld(seed, netsim.LAN())
	defer world.release()
	clk, net := world.Clk, world.Net
	movie := mpeg.Generate("striped", mpeg.StreamConfig{Seed: seed})
	svc, err := tiger.New(tiger.Config{
		Clock:   clk,
		Network: net,
		Cubs:    []string{"cub-0", "cub-1", "cub-2", "cub-3"},
		Mirrors: 2,
		Movie:   movie,
	})
	if err != nil {
		panic(err)
	}
	defer svc.Stop()
	recv, err := tiger.NewReceiver(clk, net, "viewer", movie.FPS())
	if err != nil {
		panic(err)
	}
	defer recv.Close()

	clk.Advance(time.Second)
	svc.StartStream("viewer")
	for i, id := range crashes {
		id := id
		clk.AfterFunc(time.Duration(20+20*i)*time.Second, func() {
			svc.CrashCub(id)
			net.Crash(transport.Addr(id))
		})
	}
	clk.Advance(movie.Duration())
	c := recv.Counters()
	return c.GapSkipped, c.Displayed
}

// tableBufferSweep varies the client buffer size and reports smoothness
// across the LAN crash scenario — the §4.2 sizing tradeoff.
func tableBufferSweep(seed int64) Table {
	t := Table{
		ID:     "Abl B",
		Title:  "buffer-size sweep on the LAN crash scenario (§4.2)",
		Header: []string{"buffer (s of video)", "capacity (frames)", "skipped", "late", "stalls"},
	}
	scales := []float64{0.25, 0.5, 1.0, 1.5, 2.0}
	t.Rows = fanOut(len(scales), func(i int) []string {
		scale := scales[i]
		buf := buffer.Config{
			SoftwareCapacity:      int(37 * scale),
			HardwareCapacityBytes: int(240 * 1024 * scale),
		}
		flow := paramsForBuffer(buf)
		res := Run(Scenario{
			Name:    fmt.Sprintf("buf-%.1fx", scale),
			Profile: netsim.LAN(),
			Seed:    seed,
			Servers: []string{"server-1", "server-2"},
			Buffer:  buf,
			Flow:    flow,
			Events: []Event{
				{At: 30 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
			},
		})
		return []string{
			fmt.Sprintf("%.1f", 2.4*scale),
			strconv.Itoa(flow.CombinedCapacity),
			strconv.FormatUint(res.Final.Skipped(), 10),
			strconv.FormatUint(res.Final.Late, 10),
			strconv.FormatUint(res.Final.Stalls, 10),
		}
	})
	return t
}

// paramsForBuffer derives the paper's threshold fractions (73% / 88% /
// 30% / 15%) for a non-default buffer size.
func paramsForBuffer(buf buffer.Config) flowctl.Params {
	const meanFrame = 5833 // 1.4 Mbps / 8 / 30 fps
	p := flowctl.DefaultParams()
	capacity := buf.SoftwareCapacity + buf.HardwareCapacityBytes/meanFrame
	p.CombinedCapacity = capacity
	p.SoftwareCapacity = buf.SoftwareCapacity
	p.LowWater = max(capacity*73/100, 4)
	p.HighWater = max(capacity*88/100, p.LowWater+1)
	p.CriticalMinor = max(buf.SoftwareCapacity*30/100, 2)
	p.CriticalMajor = max(buf.SoftwareCapacity*15/100, 1)
	if p.CriticalMajor > p.CriticalMinor {
		p.CriticalMajor = p.CriticalMinor
	}
	return p
}

// tableEmergencySweep varies the base emergency quantity and reports the
// §4.1 tradeoff: refill speed vs overflow. Each quantity runs under both
// rules for ending a burst: the default, where a decrease from a full
// buffer ends it, and §4.1's unconditional lockout, whose overflow
// discards are the trade-off the paper measured.
func tableEmergencySweep(seed int64) Table {
	t := Table{
		ID:     "Abl E",
		Title:  "emergency quantity sweep on the LAN crash scenario (§4.1)",
		Header: []string{"base q", "rule", "total extra", "refill time after crash", "overflow discards", "stalls"},
	}
	crashAt := 30 * time.Second
	qs, rules := []int{0, 6, 12, 24}, []string{"high water", "lockout"}
	t.Rows = fanOut(len(qs)*len(rules), func(i int) []string {
		q, rule := qs[i/2], rules[i%2]
		flow := flowctl.DefaultParams()
		flow.EmergencyMajorQ = q
		flow.EmergencyMinorQ = q / 2
		flow.PaperLockout = rule == "lockout"
		res := Run(Scenario{
			Name:    fmt.Sprintf("emq-%d-%s", q, rule),
			Profile: netsim.LAN(),
			Seed:    seed,
			Servers: []string{"server-1", "server-2"},
			Flow:    flow,
			Record:  Combined,
			Events: []Event{
				{At: crashAt, Do: func(rt *Runtime) { rt.CrashServing() }},
			},
		})
		// Refill time: from the first dip below the low water mark after
		// the crash until occupancy recovers above it.
		refill := "never"
		var dipAt time.Duration
		for i, v := range res.Combined.Values {
			ts := res.Combined.Time(i)
			if ts <= crashAt {
				continue
			}
			if dipAt == 0 {
				if v < float64(flow.LowWater) {
					dipAt = ts
				}
				continue
			}
			if v >= float64(flow.LowWater) {
				refill = (ts - dipAt).Truncate(100 * time.Millisecond).String()
				break
			}
		}
		return []string{
			strconv.Itoa(q),
			rule,
			strconv.Itoa(flowctl.EmergencyTotal(q, flow.EmergencyDecay)),
			refill,
			strconv.FormatUint(res.Final.OverflowDropped, 10),
			strconv.FormatUint(res.Final.Stalls, 10),
		}
	})
	return t
}

// tableSyncSweep varies the state-sync period: a longer period means
// staler takeover offsets, hence more duplicate (late) frames at
// migration, against lower (already negligible) overhead (§5.2).
func tableSyncSweep(seed int64) Table {
	t := Table{
		ID:     "Abl S",
		Title:  "state-sync period sweep on the LAN crash scenario (§5.2)",
		Header: []string{"sync period", "late frames (duplicates)", "skipped", "sync bytes"},
	}
	periods := []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second}
	t.Rows = fanOut(len(periods), func(i int) []string {
		period := periods[i]
		res := Run(Scenario{
			Name:         fmt.Sprintf("sync-%v", period),
			Profile:      netsim.LAN(),
			Seed:         seed,
			Servers:      []string{"server-1", "server-2"},
			SyncInterval: period,
			Events: []Event{
				{At: 30 * time.Second, Do: func(rt *Runtime) { rt.CrashServing() }},
			},
		})
		var sync uint64
		for _, st := range res.ServerStats {
			sync += st.SyncBytes
		}
		return []string{
			period.String(),
			strconv.FormatUint(res.Final.Late, 10),
			strconv.FormatUint(res.Final.Skipped(), 10),
			strconv.FormatUint(sync, 10),
		}
	})
	return t
}

// tableQoS contrasts the WAN scenario with and without QoS reservation
// (§2: the service "is best provided using QoS reservation mechanisms",
// e.g. an ATM CBR channel; without one, "some buffer space and a flow
// control mechanism can account for jitter periods"). A reserved channel
// is modeled as the same path with no loss and bounded jitter. The last
// two rows come from the server-side traffic-class ladder: a LAN flash
// crowd where the server itself shapes egress and degrades best-effort
// sessions so reserved viewers keep their guarantees.
func tableQoS(seed int64) Table {
	t := Table{
		ID:     "Abl Q",
		Title:  "WAN with vs without QoS reservation (§2)",
		Header: []string{"network", "class", "skipped", "late", "stalls", "worst freeze (ticks)", "arrival jitter"},
	}
	reserved := netsim.WAN()
	reserved.Loss = 0
	reserved.Jitter = 2 * time.Millisecond
	cases := []struct {
		name string
		prof netsim.Profile
	}{
		{"best effort (0.5% loss, 8ms jitter)", netsim.WAN()},
		{"reserved channel (no loss, 2ms jitter)", reserved},
	}
	classRow := func(name string, out ClassOutcome) []string {
		return []string{
			"LAN flash crowd (server-shaped)",
			name,
			strconv.FormatUint(out.Skipped, 10),
			strconv.FormatUint(out.Late, 10),
			strconv.FormatUint(out.Stalls, 10),
			strconv.FormatUint(out.WorstStall, 10),
			"-",
		}
	}
	rows := fanOut(len(cases)+1, func(i int) [][]string {
		if i == len(cases) {
			res := OverloadTrial(OverloadConfig{Seed: seed})
			return [][]string{
				classRow("reserved", res.Reserved),
				classRow("best effort", res.BestEffort),
			}
		}
		sc := WANScenario(seed)
		sc.Profile = cases[i].prof
		res := Run(sc)
		return [][]string{{
			cases[i].name,
			"-",
			strconv.FormatUint(res.Final.Skipped(), 10),
			strconv.FormatUint(res.Final.Late, 10),
			strconv.FormatUint(res.Final.Stalls, 10),
			strconv.FormatUint(res.Final.MaxStallRun, 10),
			res.ClientJitter.Truncate(100 * time.Microsecond).String(),
		}}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r...)
	}
	return t
}

// tableObservability dumps every node's obs counters after the LAN crash
// scenario — the deterministic end-of-run snapshot of the cluster-wide
// observability layer. Counter values are exactly reproducible for a
// given seed, so this table doubles as a regression canary for the
// protocol's message economy.
func tableObservability(seed int64) Table {
	res := Run(LANScenario(seed))
	t := Table{
		ID:     "Tbl O",
		Title:  "per-node observability counters (90s LAN crash scenario)",
		Header: []string{"node", "counter", "value"},
	}
	nodes := make([]string, 0, len(res.Obs))
	for id := range res.Obs {
		nodes = append(nodes, id)
	}
	sort.Strings(nodes)
	for _, id := range nodes {
		snap := res.Obs[id].Snapshot()
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Rows = append(t.Rows, []string{
				id, name, strconv.FormatUint(snap.Counters[name], 10),
			})
		}
	}
	return t
}

// tableDiscard quantifies the I-frame-preserving overflow policy (§3) on
// the WAN scenario, where overflow actually occurs.
func tableDiscard(seed int64) Table {
	t := Table{
		ID:     "Abl D",
		Title:  "overflow discard policy: I-frame preserving vs naive (§3)",
		Header: []string{"policy", "overflow discards", "I frames among them"},
	}
	policies := []bool{false, true}
	t.Rows = fanOut(len(policies), func(i int) []string {
		naive := policies[i]
		// A half-size buffer puts real pressure on the overflow path, so
		// the policy difference is visible.
		buf := buffer.Config{
			SoftwareCapacity:      18,
			HardwareCapacityBytes: 108_000,
			NaiveDiscard:          naive,
		}
		sc := LANScenario(seed)
		sc.Buffer = buf
		sc.Flow = paramsForBuffer(buf)
		res := Run(sc)
		name := "preserve I frames (paper)"
		if naive {
			name = "naive (newest first)"
		}
		return []string{
			name,
			strconv.FormatUint(res.Final.OverflowDropped, 10),
			strconv.FormatUint(res.Final.OverflowDroppedI, 10),
		}
	})
	return t
}
