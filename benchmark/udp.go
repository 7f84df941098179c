package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transport"
)

// udp_failover: the only path a deployment runs. Two servers and the
// viewers are real UDP sockets on loopback, on the real clock, in this one
// process, assembled by core.Deploy exactly as the daemons' library users
// would. Loopback is not a link and goroutines are not machines: the
// numbers say what the software costs, not what a network does.

const (
	udpMovie = "feature"
	// udpConverge is how long the server group gets to converge between
	// set-up and the first Open; the wait is part of neither setup_s nor the
	// timed section. With 0.5 s, 2 of 10 prototype runs froze the first
	// viewers (README, "Convergence freeze"); with 2.5 s none of 24 did.
	udpConverge = 2500 * time.Millisecond
	// udpOpenWindow is the time over which the viewers arrive.
	udpOpenWindow = 2 * time.Second
	// udpMinDisplayedShare is the issue's correctness floor across the
	// crash. Every run on the sandbox the benchmark was defined on was at or
	// above 0.995.
	udpMinDisplayedShare = 0.99
	// udpMinCrashStream is the shortest stream that includes the crash.
	udpMinCrashStream = 10 * time.Second
)

// udpStream is how long viewers stream: a fixed function of --seconds.
func udpStream(o *options) time.Duration {
	s := 0.8 * o.seconds
	if s < 3 {
		s = 3
	}
	return time.Duration(s * float64(time.Second))
}

// udpSchedule is the open-loop schedule both the UDP run and its simulator
// twin follow.
type udpSchedule struct {
	stream  time.Duration // how long viewers stream
	crashAt time.Duration // when the busier server is stopped
	crash   bool
}

// Viewers need about ten seconds to fill their buffers; a stream too short
// for that (the tests' toy size) runs without the crash.
func newUDPSchedule(o *options) udpSchedule {
	stream := udpStream(o)
	return udpSchedule{stream: stream, crashAt: stream / 2, crash: stream >= udpMinCrashStream}
}

// due is when viewer i of n is to call Watch.
func (sc udpSchedule) due(i, n int) time.Duration {
	window := udpOpenWindow
	if window > sc.stream/4 {
		window = sc.stream / 4
	}
	return window * time.Duration(i) / time.Duration(n)
}

// stopBusiest stops the server with the most sessions — more viewers ride
// the takeover — and returns the viewers it was serving.
func stopBusiest(dep *core.Deployment) (victims []string) {
	var victim string
	for _, id := range dep.ServerIDs() {
		if sessions := dep.Server(id).ActiveSessions(); len(sessions) > len(victims) {
			victim, victims = id, sessions
		}
	}
	if victim != "" {
		dep.StopServer(victim)
	}
	return victims
}

// udpNet hands core.Deploy real sockets and keeps every endpoint it made,
// so the run can close them all and read their counters.
type udpNet struct {
	tr *tracer // nil on an untraced run: endpoints are handed out bare

	mu   sync.Mutex
	eps  []*transport.UDPEndpoint
	regs []*obs.Registry
}

func (n *udpNet) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	reg := obs.NewRegistry(string(addr), time.Now)
	ep, err := transport.ListenUDP(string(addr), addr, reg)
	if err != nil {
		return nil, fmt.Errorf("udp endpoint %s (port taken since the bind-probe?): %w", addr, err)
	}
	n.mu.Lock()
	n.eps = append(n.eps, ep)
	n.regs = append(n.regs, reg)
	n.mu.Unlock()
	if n.tr == nil {
		return ep, nil
	}
	traced, err := n.tr.traceEndpoint(ep, n.tr.viewers[addr])
	if err != nil {
		ep.Close()
		return nil, err
	}
	return traced, nil
}

// counter sums one transport counter over every endpoint.
func (n *udpNet) counter(name string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum uint64
	for _, reg := range n.regs {
		sum += reg.Snapshot().Counters[name]
	}
	return float64(sum)
}

func (n *udpNet) closeAll() error {
	n.mu.Lock()
	eps := n.eps
	n.mu.Unlock()
	var first error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// freePorts returns n loopback UDP ports that were free a moment ago, all
// below the kernel's ephemeral range so that no outgoing socket of the
// machine can take one between the probe and the bind.
func freePorts(n int, seed int64) ([]int, error) {
	hi := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil && v > 12000 {
				hi = v
			}
		}
	}
	lo := hi - 10000
	span := hi - lo
	start := int((fold(seed, 97)*101 + int64(os.Getpid())*7) % int64(span))
	var ports []int
	for i := 0; i < span && len(ports) < n; i++ {
		port := lo + (start+i)%span
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			continue
		}
		conn.Close()
		ports = append(ports, port)
	}
	if len(ports) < n {
		return nil, fmt.Errorf("only %d of %d loopback UDP ports free in %d-%d", len(ports), n, lo, hi)
	}
	return ports, nil
}

type udpState struct {
	clk     clock.Clock
	net     *udpNet
	tr      *tracer
	dep     *core.Deployment
	servers []string
	viewers []*client.Client
	order   []transport.Addr // viewer addresses in schedule order
}

// close tears the deployment down and verifies nothing of it survives.
func (st *udpState) close() error {
	for _, c := range st.viewers {
		c.Close()
	}
	if st.dep != nil {
		st.dep.Stop()
	}
	if err := st.net.closeAll(); err != nil {
		return fmt.Errorf("closing endpoints: %w", err)
	}
	// Receive loops have exited (Close waits for them); timer goroutines
	// of the real clock drain within their callbacks' run time.
	deadline := time.Now().Add(3 * time.Second)
	for {
		leaked := repoGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines of the deployment survive the run, first:\n%s", len(leaked), leaked[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// repoGoroutines returns the stacks of goroutines, other than the caller,
// that are executing repository code.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the caller
		}
		if strings.Contains(g, "repro/internal/") {
			out = append(out, g)
		}
	}
	return out
}

func setupUDP(o *options) (any, error) {
	if o.viewers < 1 {
		return nil, fmt.Errorf("need at least one viewer, got %d", o.viewers)
	}
	st := &udpState{clk: clock.Real{}, net: &udpNet{}}
	ports, err := freePorts(2+o.viewers, o.seed)
	if err != nil {
		return nil, err
	}
	addr := func(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }
	st.servers = []string{addr(ports[0]), addr(ports[1])}
	viewerAddrs := make([]string, o.viewers)
	for i := range viewerAddrs {
		viewerAddrs[i] = addr(ports[2+i])
		st.order = append(st.order, transport.Addr(viewerAddrs[i]))
	}
	if o.traced {
		st.tr = newTracer()
		for _, a := range viewerAddrs {
			st.tr.viewers[transport.Addr(a)] = &viewerTrace{}
		}
		st.net.tr = st.tr
		st.clk = st.tr.traceClock(st.clk)
	}

	// The movie outlasts the stream, so no viewer finishes during the run.
	movie := core.GenerateMovie(udpMovie, udpStream(o)+30*time.Second, o.seed)
	st.dep, err = core.Deploy(core.DeployOptions{
		Clock:   st.clk,
		Network: st.net,
		Servers: st.servers,
		Movies:  []*core.Movie{movie},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	for _, a := range viewerAddrs {
		c, err := st.dep.NewClient(a)
		if err != nil {
			st.close()
			return nil, err
		}
		st.viewers = append(st.viewers, c)
	}
	return st, nil
}

// action is one step of the open-loop schedule.
type action struct {
	at time.Duration
	do func()
}

func runUDP(o *options, state any, begin, end func()) (out *outcome, err error) {
	st := state.(*udpState)
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	n := len(st.viewers)
	sc := newUDPSchedule(o)
	stream, crashAt := sc.stream, sc.crashAt
	tail := stream - 2*time.Second
	if tail < crashAt {
		tail = crashAt
	}

	var (
		due        = make([]time.Duration, n) // each viewer's Watch, offset from t0
		watchErr   error
		notWatched = make([]bool, n)
		tailRecv   = make([]uint64, n)
		victims    []string
		genLate    []float64
		t0         time.Time
	)
	var plan []action
	for i := 0; i < n; i++ {
		i := i
		due[i] = sc.due(i, n)
		plan = append(plan, action{due[i], func() {
			late := time.Since(t0) - due[i]
			genLate = append(genLate, float64(late.Nanoseconds())/1e6)
			if err := st.viewers[i].Watch(udpMovie); err != nil && watchErr == nil {
				watchErr = err
			}
		}})
		check := due[i] + 5*time.Second
		if check > stream {
			check = stream
		}
		plan = append(plan, action{check, func() {
			s := st.viewers[i].State()
			notWatched[i] = s != client.StateWatching
		}})
	}
	if sc.crash {
		plan = append(plan, action{crashAt, func() { victims = stopBusiest(st.dep) }})
	}
	plan = append(plan, action{tail, func() {
		for i, c := range st.viewers {
			tailRecv[i] = c.Counters().Received
		}
	}})
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })

	time.Sleep(udpConverge)
	begin()
	t0 = time.Now()
	if st.tr != nil {
		st.tr.gapWindowNS.Store(t0.Add(crashAt - time.Second).Sub(st.tr.t0).Nanoseconds())
	}
	for _, a := range plan {
		if d := a.at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		a.do()
	}
	if d := stream - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
	end()
	if watchErr != nil {
		return nil, watchErr
	}

	out = &outcome{Attempted: n, Values: map[string]float64{}}
	var displayed, stalls, skipped, late, opens, reopens float64
	var maxStallRun uint64
	for i, c := range st.viewers {
		cnt := c.Counters()
		stats := c.Stats()
		maxStallRun = max(maxStallRun, cnt.MaxStallRun)
		displayed += float64(cnt.Displayed)
		stalls += float64(cnt.Stalls)
		skipped += float64(cnt.Skipped())
		late += float64(cnt.Late)
		opens += float64(stats.OpensSent)
		reopens += float64(stats.Reopens)
		switch {
		case notWatched[i]:
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("viewer %d not watching 5 s after its Open", i))
		case cnt.MaxStallRun > 30:
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("viewer %d froze for %d ticks", i, cnt.MaxStallRun))
		case cnt.Received == tailRecv[i]:
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("viewer %d received no frame in the last %v", i, stream-tail))
		}
	}
	streamed := 0.0 // viewer-seconds
	for i := range due {
		streamed += (stream - due[i]).Seconds()
	}
	share := displayed / (displayed + stalls + skipped)
	out.Values["displayed_share"] = share
	out.Values["stall_ticks"] = stalls
	out.Values["opens_per_viewer"] = opens / float64(n)
	out.Values["client.reopens"] = reopens
	out.Values["udp.skipped_frames"] = skipped
	out.Values["udp.late_frames"] = late
	out.Values["viewer_seconds"] = streamed
	out.Values["gen.late_ms_p99"] = quantile(genLate, 0.99)
	out.check("displayed_share >= 0.99 across the crash", share >= udpMinDisplayedShare, "%.4f (displayed %v, stalls %v, skipped %v)", share, displayed, stalls, skipped)
	// Viewers of the stopped server that joined last ride the takeover on
	// the least buffer, and on some runs it runs dry for a tick or two.
	out.Checks = append(out.Checks, knownFailure("no UDP viewer stalls", stalls == 0, "%v stall ticks over %d viewers (longest run %d ticks)", stalls, n, maxStallRun))
	if sc.crash {
		out.check("a server was stopped with viewers on it", len(victims) > 0, "no server had a session at %v", crashAt)
	}

	// Tear down before reading the endpoint counters: Close waits for the
	// receive loops, after which the counters and viewer traces are final.
	if err := st.close(); err != nil {
		return nil, err
	}
	st.viewers, st.dep = nil, nil
	out.Values["udp.sent_datagrams"] = st.net.counter("transport.sent_datagrams")
	out.Values["udp.recv_datagrams"] = st.net.counter("transport.recv_datagrams")
	out.Values["udp.recv_dropped"] = st.net.counter("transport.recv_dropped")
	out.Values["udp.send_errors"] = st.net.counter("transport.send_errors")
	out.check("no datagram dropped for want of a handler", out.Values["udp.recv_dropped"] == 0, "%v dropped", out.Values["udp.recv_dropped"])

	if st.tr != nil {
		if err := udpTraceValues(o, st, out, due, victims, crashAt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// udpTraceValues renders the decorators' aggregates and runs the
// simulator's prediction of the same scenario.
func udpTraceValues(o *options, st *udpState, out *outcome, due []time.Duration, victims []string, crashAt time.Duration) error {
	tr := st.tr
	v := out.Values
	us := func(h *hist, q float64) float64 { return h.quantileNS(q) / 1e3 }
	ms := func(h *hist, q float64) float64 { return h.quantileNS(q) / 1e6 }
	v["span.udp_send_us_p50"], v["span.udp_send_us_p99"] = us(&tr.send, 0.5), us(&tr.send, 0.99)
	v["span.client_handler_us_p50"], v["span.client_handler_us_p99"] = us(&tr.clientHandler, 0.5), us(&tr.clientHandler, 0.99)
	v["span.timer_callback_us_p50"], v["span.timer_callback_us_p99"] = us(&tr.timerSelf, 0.5), us(&tr.timerSelf, 0.99)
	v["timer.armed"], v["timer.fired"] = float64(tr.armed.Load()), float64(tr.fired.Load())
	v["timer.late_ms_p50"], v["timer.late_ms_p99"] = ms(&tr.timerLate, 0.5), ms(&tr.timerLate, 0.99)

	// t0 of the schedule, as an offset on the tracer's clock.
	schedule0 := tr.gapWindowNS.Load() - (crashAt - time.Second).Nanoseconds()
	var first []float64
	for idx, a := range st.order {
		vt := tr.viewers[a]
		if vt.firstFrameNS != 0 {
			first = append(first, float64(vt.firstFrameNS-schedule0-due[idx].Nanoseconds())/1e6)
		}
	}
	v["udp.open_to_first_frame_ms_p50"] = quantile(first, 0.5)
	v["udp.open_to_first_frame_ms_p80"] = quantile(first, 0.8)
	var gaps []float64
	for _, id := range victims {
		if vt := tr.viewers[transport.Addr(id)]; vt != nil {
			gaps = append(gaps, float64(vt.maxGapNS)/1e6)
		}
	}
	v["udp.takeover_gap_ms_p50"] = quantile(gaps, 0.5)
	v["udp.takeover_gap_ms_max"] = quantile(gaps, 1)

	if err := tr.writeRing(filepath.Join(o.outDir, fmt.Sprintf("%s.spans.seed%d.jsonl", wUDP, o.seed))); err != nil {
		return err
	}
	gap, share, err := simTwin(o)
	if err != nil {
		return fmt.Errorf("simulator twin: %w", err)
	}
	v["udp.sim_takeover_gap_ms_p50"] = gap
	v["udp.sim_displayed_share"] = share
	return nil
}

// simTwin runs the same scenario — 2 servers, the same viewers arriving on
// the same schedule, the busier server stopped at the same offset — on the
// virtual clock and the simulated LAN, and returns what the simulator
// predicts for the two numbers the UDP run measured.
func simTwin(o *options) (gapP50MS, displayedShare float64, err error) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	network := netsim.New(clk, o.seed, netsim.LAN())
	sc := newUDPSchedule(o)
	stream := sc.stream
	movie := core.GenerateMovie(udpMovie, stream+30*time.Second, o.seed)
	dep, err := core.Deploy(core.DeployOptions{
		Clock:   clk,
		Network: network,
		Servers: []string{"server-1", "server-2"},
		Movies:  []*core.Movie{movie},
	})
	if err != nil {
		return 0, 0, err
	}
	defer dep.Stop()
	clk.Advance(udpConverge)

	n := o.viewers
	crashAt := sc.crashAt
	viewers := make(map[string]*client.Client, n)
	var ids []string
	defer func() {
		for _, c := range viewers {
			c.Close()
		}
	}()
	start := clk.Now()
	advanceTo := func(offset time.Duration) { clk.AdvanceTo(start.Add(offset)) }
	for i := 0; i < n; i++ {
		advanceTo(sc.due(i, n))
		id := fmt.Sprintf("viewer-%03d", i)
		c, err := dep.NewClient(id)
		if err != nil {
			return 0, 0, err
		}
		viewers[id] = c
		ids = append(ids, id)
		if err := c.Watch(udpMovie); err != nil {
			return 0, 0, err
		}
	}

	// From one second before the crash, sample every viewer's received
	// count each virtual millisecond: the longest time it stood still is
	// the inter-frame gap the UDP decorator measures at the socket.
	advanceTo(crashAt - time.Second)
	type watch struct {
		recv    uint64
		changed time.Time
		maxGap  time.Duration
	}
	watches := make(map[string]*watch, n)
	for _, id := range ids {
		watches[id] = &watch{recv: viewers[id].Counters().Received, changed: clk.Now()}
	}
	var victims []string
	stopped := false
	for off := crashAt - time.Second; off < stream; off += time.Millisecond {
		advanceTo(off)
		if !stopped && sc.crash && off >= crashAt {
			stopped = true
			victims = stopBusiest(dep)
		}
		now := clk.Now()
		for _, id := range ids {
			w := watches[id]
			if r := viewers[id].Counters().Received; r != w.recv {
				if gap := now.Sub(w.changed); gap > w.maxGap {
					w.maxGap = gap
				}
				w.recv, w.changed = r, now
			}
		}
	}
	advanceTo(stream)
	var gaps []float64
	for _, id := range victims {
		if w := watches[id]; w != nil {
			gaps = append(gaps, float64(w.maxGap.Nanoseconds())/1e6)
		}
	}
	var displayed, due float64
	for _, c := range viewers {
		cnt := c.Counters()
		displayed += float64(cnt.Displayed)
		due += float64(cnt.Displayed + cnt.Stalls + cnt.Skipped())
	}
	if due == 0 {
		return 0, 0, errors.New("no viewer displayed anything")
	}
	return quantile(gaps, 0.5), displayed / due, nil
}
