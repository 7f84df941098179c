// Command benchmark is the repository's one benchmark (BENCHMARK.json): four
// workloads over the whole VoD stack, end-to-end metrics on an untraced run,
// per-layer probes, profile attribution and boundary counts on a traced one.
//
//	bash benchmark/run.sh --workload scale_table --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload udp_failover --seed 7 --seconds 20 --trace 1
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// Every workload runs in its own subprocess of this binary (so peak RSS, GC
// state and allocation counters are per run); this process only starts
// them, parses their profiles and prints the result. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; everything for a human goes to standard error. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	record   string
	outDir   string

	// Set by the parent on the subprocesses it starts. viewers and
	// probeBatches are the benchmark's sizes (defaults below); only
	// bench_test.go's toy runs pass smaller ones, and every record carries
	// them so that -compare can refuse runs of different sizes.
	child        string // "run", "setup" or "probes"
	traced       bool
	viewers      int
	probeBatches int
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the program under test only ever sees inputs generated from it")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "nominal run length; sizes the work (a fixed function of this value, not a deadline)")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: probes + untraced + traced run, per-layer metrics")
	fs.StringVar(&o.record, "record", "", "append this run's full record (metrics of both kinds, checks, digest, host) to this JSON-lines file")
	fs.StringVar(&o.outDir, "out", "", "directory for profiles and the span ring (default benchmark/out)")
	fs.StringVar(&o.child, "child", "", "internal: run as a workload subprocess (run, setup, probes)")
	fs.BoolVar(&o.traced, "traced", false, "internal: child captures profiles and installs the UDP decorators")
	fs.IntVar(&o.viewers, "viewers", udpViewers, "internal: udp_failover viewers, parent to child")
	fs.IntVar(&o.probeBatches, "probe-batches", probeBatches, "internal: batches per probe, parent to child")
	compare := fs.Bool("compare", false, "compare two record files: -compare a.jsonl b.jsonl")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json as this binary defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.outDir == "" {
		o.outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			o.outDir = filepath.Join("benchmark", "out")
		}
	}

	var err error
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(specJSON())
	case *compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare needs two record files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err == nil && regressed {
			return 1
		}
	case o.child != "":
		err = childMain(&o)
	default:
		err = parentMain(&o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// pinRuntime fixes the scheduler width and the simulator's run-level
// parallelism so that host metrics mean the same thing on every machine
// with at least two cores.
func pinRuntime() {
	runtime.GOMAXPROCS(benchProcs())
	sim.SetParallelism(1)
}

func benchProcs() int { return min(runtime.NumCPU(), 2) }

// ---------------------------------------------------------------------
// Child side.

// check is one correctness assertion of a workload. A failed check makes
// the run incorrect unless it is a known failure: an acceptance claim of
// ISSUE 12 that the program does not meet on every input at the commit the
// benchmark was defined on (README, "Known failures"). Those are asserted as
// strictly as the issue states them on every run, and a miss is listed in
// the record and on standard error; it does not fail the run, because the
// benchmark may neither fix the program nor choose inputs to hide it.
type check struct {
	Name         string `json:"name"`
	OK           bool   `json:"ok"`
	KnownFailure bool   `json:"known_failure,omitempty"`
	Detail       string `json:"detail,omitempty"`
}

// failed reports whether c makes its run incorrect.
func (c check) failed() bool { return !c.OK && !c.KnownFailure }

// outcome is what a workload's timed section reports besides host costs.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Digest    string             `json:"sim_digest,omitempty"`
	Values    map[string]float64 `json:"values"`
	Notes     []string           `json:"notes,omitempty"`
}

func newCheck(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

func (out *outcome) check(name string, ok bool, format string, args ...any) {
	out.Checks = append(out.Checks, newCheck(name, ok, format, args...))
}

// knownFailure is the check of an acceptance claim whose miss is a known
// failure.
func knownFailure(name string, ok bool, format string, args ...any) check {
	c := newCheck(name, ok, format, args...)
	c.KnownFailure = !ok
	return c
}

// childResult is the one JSON line a child prints.
type childResult struct {
	Workload string  `json:"workload"`
	SetupS   float64 `json:"setup_s"`
	measured
	outcome
}

// workloadImpl splits a workload at the line setup_s is defined by: process
// start to the return of setup, which does all the work that must precede
// the first timed call and waits for nothing.
type workloadImpl struct {
	setup func(o *options) (any, error)
	// run holds the timed section. It calls begin exactly once, when its
	// first timed call is due, and end when the last has returned. A wait
	// before begin (udp_failover's convergence time) and work after end
	// (teardown, harvesting) belong to neither setup_s nor the timed
	// section.
	run func(o *options, state any, begin, end func()) (*outcome, error)
}

var impls = map[string]workloadImpl{
	wScale: {setupScale, runScale},
	wPaper: {setupPaper, runPaper},
	wChaos: {setupChaos, runChaos},
	wUDP:   {setupUDP, runUDP},
}

func lookup(workload string) (workloadImpl, error) {
	impl, ok := impls[workload]
	if !ok {
		return impl, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	return impl, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func childMain(o *options) error {
	if o.traced {
		// Finer heap sampling than the 512 KiB default: the attribution
		// table wants hundreds of samples per layer. Its cost is part of
		// trace_overhead_pct.
		runtime.MemProfileRate = 64 << 10
	}
	pinRuntime()
	if o.child == "probes" {
		vals, err := runProbes(o)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(childResult{Workload: o.workload, outcome: outcome{Values: vals}})
	}
	impl, err := lookup(o.workload)
	if err != nil {
		return err
	}
	state, err := impl.setup(o)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	res := childResult{Workload: o.workload, SetupS: time.Since(processStart).Seconds()}
	if o.child == "setup" {
		// Exiting is the tear-down: the kernel closes the sockets.
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	var prof *profiler
	if o.traced {
		if prof, err = newProfiler(o); err != nil {
			return err
		}
	}
	var m *meter
	begin := func() {
		if prof != nil {
			prof.start()
		}
		m = startMeter()
	}
	end := func() {
		res.measured = m.stop()
		if prof != nil {
			prof.stop()
		}
	}
	out, err := impl.run(o, state, begin, end)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if prof != nil {
		if err := prof.err(); err != nil {
			return err
		}
	}
	res.outcome = *out
	return json.NewEncoder(os.Stdout).Encode(res)
}

// ---------------------------------------------------------------------
// Parent side.

// spawn runs this binary as a child and decodes the JSON line it prints.
// The child's standard error passes through; peak RSS comes from the
// kernel's accounting of the child.
func spawn(o *options, mode string, traced bool) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-child", mode,
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-viewers", strconv.Itoa(o.viewers),
		"-probe-batches", strconv.Itoa(o.probeBatches),
		"-out", o.outDir,
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child of %s: %w", mode, o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child of %s: bad result line: %w", mode, o.workload, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, rssMB, nil
}

// childEnv marks a process as a benchmark subprocess; bench_test.go's
// TestMain uses it to turn the test binary into the benchmark.
const childEnv = "VODBENCH_CHILD=1"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one invocation, for -record / -compare.
// The embedded result's metrics are the kind --trace selected; EndToEnd is
// always there (the untraced child always runs), PerLayer on traced
// invocations.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Size     size   `json:"size"`
	result
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// HostTime is wall_s, cpu_s and peak_rss_mb of the untraced child on
	// every invocation: per-layer metrics to the driver (they do not repeat
	// within any bound it allows), but what an A/B of run-sets is about.
	HostTime map[string]metricValue `json:"host_time"`
	Digest   string                 `json:"sim_digest,omitempty"`
	Checks   []check                `json:"checks"`
	Notes    []string               `json:"notes,omitempty"`
	Host     hostInfo               `json:"host"`
}

// size is what fixes the amount of work of a run; -compare refuses to
// compare records of one workload that differ in it.
type size struct {
	Seconds      float64 `json:"seconds"`
	Viewers      int     `json:"viewers"`
	ProbeBatches int     `json:"probe_batches"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Network    string `json:"network"`
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		GoVersion:  runtime.Version(),
		Network:    "loopback, single process (viewers are goroutine-multiplexed sockets, not OS threads or machines)",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return h
}

// measure runs one invocation's subprocesses and assembles its record.
func measure(o *options) (*record, error) {
	if _, err := lookup(o.workload); err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: host(),
		Size: size{Seconds: o.seconds, Viewers: o.viewers, ProbeBatches: o.probeBatches},
	}

	var probes map[string]float64
	if o.trace != 0 {
		pr, _, err := spawn(o, "probes", false)
		if err != nil {
			return nil, err
		}
		probes = pr.Values
	}

	// The contract asks for several set-ups per run and their median: the
	// run child's own and setupReps-1 subprocesses that set up and exit.
	var setups []float64
	for i := 1; i < setupReps; i++ {
		sr, _, err := spawn(o, "setup", false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sr.SetupS)
	}
	base, rssMB, err := spawn(o, "run", false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, base.SetupS)
	if base.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", o.workload)
	}
	rec.Attempted, rec.Failed = base.Attempted, base.Failed
	rec.Checks = base.Checks
	rec.Digest = base.Digest
	rec.Notes = base.Notes

	// End-to-end metrics always come from the untraced child.
	e2e := map[string]float64{
		"setup_s":         median(setups),
		"alloc_mb":        base.AllocMB,
		"allocs_k":        base.AllocsK,
		"displayed_share": base.Values["displayed_share"],
	}
	rec.EndToEnd = map[string]metricValue{}
	for _, m := range endToEnd {
		rec.EndToEnd[m.Name] = metricValue{e2e[m.Name], m.Unit}
	}
	rec.Metrics = rec.EndToEnd
	rec.HostTime = map[string]metricValue{
		"wall_s":      {base.WallS, "s"},
		"cpu_s":       {base.CPUS, "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}

	if o.trace != 0 {
		traced, _, err := spawn(o, "run", true)
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{}
		for k, v := range probes {
			vals[k] = v
		}
		for k, v := range base.Values {
			vals[k] = v
		}
		// UDP spans and decorator counts exist on the traced child only.
		for k, v := range traced.Values {
			if _, have := base.Values[k]; !have {
				vals[k] = v
			}
		}
		vals["failed_share"] = float64(base.Failed) / float64(base.Attempted)
		for k, v := range rec.HostTime {
			vals[k] = v.Value
		}
		if vs := base.Values["viewer_seconds"]; vs > 0 {
			vals["cpu_ms_per_viewer_s"] = base.CPUS * 1e3 / vs
		}
		if base.CPUS > 0 {
			vals["trace_overhead_pct"] = (traced.CPUS - base.CPUS) / base.CPUS * 100
		}
		attr, err := attributeProfiles(o, traced.CPUS)
		if err != nil {
			return nil, err
		}
		for k, v := range attr {
			vals[k] = v
		}
		for _, c := range traced.Checks {
			c.Name = "traced run: " + c.Name
			rec.Checks = append(rec.Checks, c)
		}
		rec.Failed += traced.Failed
		rec.Attempted += traced.Attempted
		rec.Checks = append(rec.Checks, newCheck("traced run reproduces the untraced sim_digest",
			traced.Digest == base.Digest, "untraced %s, traced %s", base.Digest, traced.Digest))
		rec.PerLayer = map[string]metricValue{}
		for _, m := range perLayer() {
			rec.PerLayer[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
		rec.Metrics = rec.PerLayer
		printAttribution(os.Stderr, o.workload, vals)
	}

	rec.Correct = rec.Failed == 0
	for _, c := range rec.Checks {
		if c.failed() {
			rec.Correct = false
		}
	}
	return rec, nil
}

func parentMain(o *options) error {
	rec, err := measure(o)
	if err != nil {
		return err
	}
	for _, c := range rec.Checks {
		switch {
		case c.failed():
			fmt.Fprintf(os.Stderr, "benchmark: CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		case !c.OK:
			fmt.Fprintf(os.Stderr, "benchmark: KNOWN FAILURE: %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%g trace=%d: attempted=%d failed=%d correct=%v wall_s=%.3f cpu_s=%.3f peak_rss_mb=%.1f sim_digest=%s (nproc=%d GOMAXPROCS=%d %s; %s)\n",
		o.workload, o.seed, o.seconds, o.trace, rec.Attempted, rec.Failed, rec.Correct,
		rec.HostTime["wall_s"].Value, rec.HostTime["cpu_s"].Value, rec.HostTime["peak_rss_mb"].Value, rec.Digest,
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Network)
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "benchmark: note:", n)
	}
	if o.record != "" {
		if err := appendRecord(o.record, rec); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec.result); err != nil {
		return err
	}
	if !rec.Correct {
		return errors.New("outputs are not correct")
	}
	return nil
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
