package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
)

var full = flag.Bool("benchmark.full", false, "also run scale_table (about a minute)")

// TestMain turns the test binary into the benchmark when the benchmark
// starts it as a subprocess: workloads re-execute os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv("VODBENCH_CHILD") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables in spec.go
// and both to the builder's contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := specJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with -print-spec\n got %+v\nwant %+v", got, want)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if keys := sortedKeys(raw); !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("keys %v, want exactly %v", keys, wantKeys)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
			for _, o := range got.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
}

// toy runs one workload at a toy size, traced (which also runs it
// untraced), and checks what a record must hold.
func toy(t *testing.T, o options) *record {
	t.Helper()
	o.trace = 1
	o.probeBatches = 1
	o.outDir = t.TempDir()
	rec, err := measure(&o)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Checks {
		if !c.OK {
			t.Errorf("check failed: %s: %s", c.Name, c.Detail)
		}
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	names := func(ms []metricSpec) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	same := func(kind string, got map[string]metricValue, want map[string]string) {
		for n, unit := range want {
			m, ok := got[n]
			if !ok {
				t.Errorf("%s metric %s not emitted", kind, n)
			} else if m.Unit != unit {
				t.Errorf("%s metric %s: unit %q, want %q", kind, n, m.Unit, unit)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s metric %s emitted but not in BENCHMARK.json", kind, n)
			}
		}
	}
	same("end-to-end", rec.EndToEnd, names(endToEnd))
	same("per-layer", rec.PerLayer, names(perLayer()))
	for n, m := range rec.EndToEnd {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; every one must be positive on every workload", n, m.Value)
		}
	}
	var cpu float64
	for _, l := range append(append([]string(nil), layers...), layerGC, layerOther) {
		cpu += rec.PerLayer["cpu_s."+l].Value
	}
	if cpu <= 0 {
		t.Error("attribution charged no CPU time to any layer")
	}
	for _, probe := range probeMetrics[o.workload] {
		if rec.PerLayer[probe].Value <= 0 {
			t.Errorf("probe %s measured nothing", probe)
		}
	}
	return rec
}

// probeMetrics names the time each home workload's probes must report.
var probeMetrics = map[string][]string{
	wScale: {"wire.decode_frame_ns", "clock.schedule_fire_ns", "clock.coalesced_fire_ns", "clock.periodic_tick_ns",
		"transport.mux_dispatch_ns", "lease.renew_ns", "lease.sweep_ns_per_entry", "placement.lookup_ns",
		"buffer.insert_tick_ns", "server.session_open_us"},
	wPaper: {"wire.encode_frame_ns", "netsim.send_deliver_ns", "netsim.egress_queued_ns", "gcs.mcast_ns",
		"gcs.idle_ns_per_sim_s", "flowctl.policy_ns", "flowctl.shaper_take_ns", "server.stream_ns_per_frame"},
	wChaos: {"gcs.join_view_us", "mpeg.generate_ms", "mpeg.packet_table_ms", "obs.counter_add_ns", "sweep.speedup_2w"},
	wUDP:   {"transport.udp_send_ns", "transport.udp_rtt_us"},
}

func TestToyPaperEval(t *testing.T) {
	t.Parallel()
	rec := toy(t, options{workload: wPaper, seed: 1, seconds: 2}) // 1 seed
	if rec.Digest == "" {
		t.Error("no sim_digest")
	}
	for _, n := range []string{"takeover_ms", "sync_overhead_ppm", "netsim.delivered", "server.frames_sent"} {
		if rec.PerLayer[n].Value <= 0 {
			t.Errorf("%s = %v", n, rec.PerLayer[n].Value)
		}
	}
}

func TestToyChaosSweep(t *testing.T) {
	t.Parallel()
	rec := toy(t, options{workload: wChaos, seed: 1, seconds: 0.4}) // 8 seeds
	if rec.Digest == "" {
		t.Error("no sim_digest")
	}
	if rec.PerLayer["seed_ms_p50"].Value <= 0 {
		t.Error("no per-seed timing")
	}
}

func TestToyUDPFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test; skipped in -short mode")
	}
	t.Parallel()
	rec := toy(t, options{workload: wUDP, seed: 1, seconds: 3, viewers: 4}) // 3 s stream, no crash
	for _, n := range []string{"udp.sent_datagrams", "udp.recv_datagrams", "timer.fired", "span.udp_send_us_p50",
		"span.client_handler_us_p50", "udp.open_to_first_frame_ms_p50", "udp.sim_displayed_share"} {
		if rec.PerLayer[n].Value <= 0 {
			t.Errorf("%s = %v", n, rec.PerLayer[n].Value)
		}
	}
	if !strings.Contains(rec.Host.Network, "loopback, single process") {
		t.Errorf("record does not say what the network was: %q", rec.Host.Network)
	}
}

func TestScaleTable(t *testing.T) {
	if !*full {
		t.Skip("scale_table takes about a minute; run with -benchmark.full")
	}
	rec := toy(t, options{workload: wScale, seed: 1, seconds: runSeconds})
	if rec.Attempted != 2*15000 { // untraced + traced
		t.Errorf("attempted %d viewers, want 15,000 per run", rec.Attempted)
	}
	if v := rec.PerLayer["opens_per_viewer"].Value; v != 1 {
		t.Errorf("opens_per_viewer %v", v)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := measure(&options{workload: "nope", seconds: 1, outDir: t.TempDir()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestDecoratorFidelity: the traced run must drive the same data plane and
// the same clock fast path as the untraced one.
func TestDecoratorFidelity(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.traceClock(clock.Real{}).(clock.Scheduler); !ok {
		t.Error("clock decorator hides clock.Real's Scheduler; clock.Schedule would fall back to AfterFunc under trace")
	}
	bare := struct{ clock.Clock }{clock.Real{}}
	if _, ok := tr.traceClock(bare).(clock.Scheduler); ok {
		t.Error("clock decorator grew a Scheduler its inner clock does not have")
	}

	clk := clock.NewVirtual(epoch)
	simEP, err := netsim.New(clk, 1, netsim.LAN()).NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.traceEndpoint(simEP, nil); err == nil {
		t.Error("decorator wrapped a netsim endpoint, hiding its optional send paths")
	}

	ports, err := freePorts(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := (&udpNet{}).NewEndpoint(transport.Addr("127.0.0.1:" + strconv.Itoa(ports[0])))
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if _, err := tr.traceEndpoint(udp, nil); err != nil {
		t.Errorf("decorator refuses the UDP endpoint: %v", err)
	}
}

func TestFreePorts(t *testing.T) {
	ports, err := freePorts(66, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range ports {
		if seen[p] {
			t.Errorf("port %d handed out twice", p)
		}
		seen[p] = true
		if p >= 32768 || p < 1024 {
			t.Errorf("port %d outside the range below the ephemeral ports", p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %v, %v; Python gives 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := specJSON()
	mk := func(workload string, allocs []float64) []record {
		var recs []record
		for i, v := range allocs {
			e2e := map[string]metricValue{}
			for _, m := range spec.EndToEnd {
				e2e[m.Name] = metricValue{1, m.Unit}
			}
			e2e["alloc_mb"] = metricValue{v, "MB"}
			recs = append(recs, record{Workload: workload, Seed: int64(i), EndToEnd: e2e, Digest: "d"})
		}
		return recs
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	slower := []float64{14, 14.1, 13.9, 14, 14.05, 13.95, 14, 14.1, 13.9, 14}
	noisy := []float64{6, 14, 7, 13, 10, 15, 5, 10, 14, 6}
	verdict := func(a, b []record, workload string) (string, bool) {
		var buf bytes.Buffer
		regressed := compareRecords(&buf, spec, a, b)
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == workload && f[1] == "alloc_mb" {
				return f[len(f)-1], regressed
			}
		}
		t.Fatalf("no alloc_mb row for %s in:\n%s", workload, buf.String())
		return "", false
	}
	if v, reg := verdict(mk(wPaper, steady), mk(wPaper, steady), wPaper); v != "ok" || reg {
		t.Errorf("same runs: %s, regressed=%v", v, reg)
	}
	if v, reg := verdict(mk(wPaper, steady), mk(wPaper, slower), wPaper); v != "regressed" || !reg {
		t.Errorf("40%% slower: %s, regressed=%v", v, reg)
	}
	if v, reg := verdict(mk(wPaper, slower), mk(wPaper, steady), wPaper); v != "ok" || reg {
		t.Errorf("faster: %s, regressed=%v", v, reg)
	}
	if v, _ := verdict(mk(wPaper, steady), mk(wPaper, noisy), wPaper); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	toys := mk(wPaper, steady)
	toys[3].Size.Seconds = 2
	if err := sameSizes(toys); err == nil {
		t.Error("records of different sizes compared")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
