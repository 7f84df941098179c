package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flowctl"
	"repro/internal/gcs"
	"repro/internal/lease"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Section A of the per-layer metrics: fixed-op-count loops over exported
// functions of one layer each, timed from outside. A probe runs in the
// traced invocation of its home workload (the workload whose end-to-end
// metric it is predicted to move, README "Interactions"), before the
// workload itself. Host nanoseconds, minimum over the batches.

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// frameSize is the mean frame of the paper's 1.4 Mbit/s, 30 frames/s
// stream; one frame travels per datagram.
const frameSize = 5833

type prober struct {
	batches int
	vals    map[string]float64
}

// time runs batches of n calls of op and returns the fastest batch's
// nanoseconds per call and the heap allocations per call of that batch.
func (p *prober) time(n int, op func(i int)) (ns, allocs float64) {
	ns = -1
	for b := 0; b < p.batches; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if per := float64(d.Nanoseconds()) / float64(n); ns < 0 || per < ns {
			ns = per
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
	return ns, allocs
}

var probesByHome = map[string][]func(*prober) error{
	wScale: {probeWireDecode, probeClock, probeMux, probeLease, probePlacement, probeBuffer, probeSessionOpen},
	wPaper: {probeWireEncode, probeNetsim, probeGCSSteady, probeFlowctl, probeStream},
	wChaos: {probeGCSJoin, probeMPEG, probeObs, probeSweep},
	wUDP:   {probeUDP},
}

func runProbes(o *options) (map[string]float64, error) {
	p := &prober{batches: o.probeBatches, vals: map[string]float64{}}
	if p.batches < 1 {
		p.batches = 1
	}
	for _, probe := range probesByHome[o.workload] {
		if err := probe(p); err != nil {
			return nil, err
		}
	}
	return p.vals, nil
}

func sampleFrame() *wire.Frame {
	return &wire.Frame{Movie: "casablanca", Index: 1, Class: wire.FrameP, Payload: make([]byte, frameSize)}
}

func probeWireEncode(p *prober) error {
	var enc wire.Encoder
	f := sampleFrame()
	p.vals["wire.encode_frame_ns"], p.vals["wire.encode_frame_allocs"] = p.time(200_000, func(int) { enc.Encode(f) })
	return nil
}

func probeWireDecode(p *prober) error {
	buf := wire.Encode(sampleFrame())
	var into wire.Frame
	var err error
	p.vals["wire.decode_frame_ns"], p.vals["wire.decode_frame_allocs"] = p.time(500_000, func(int) {
		if e := wire.DecodeFrameInto(&into, buf); e != nil {
			err = e
		}
	})
	return err
}

func probeClock(p *prober) error {
	noop := func() {}

	// 10k pending timers at distinct deadlines; each op arms one behind
	// them all and fires the earliest, so the population stays at 10k.
	const pending = 10_000
	c := clock.NewVirtual(epoch)
	for i := 1; i <= pending; i++ {
		c.AfterFunc(time.Duration(i)*time.Microsecond, noop)
	}
	p.vals["clock.schedule_fire_ns"], p.vals["clock.schedule_fire_allocs"] = p.time(300_000, func(int) {
		c.AfterFunc((pending+1)*time.Microsecond, noop)
		c.Step()
	})

	// 1,000 callbacks due at one instant, per callback.
	const burst = 1000
	c = clock.NewVirtual(epoch)
	ns, _ := p.time(300, func(int) {
		for i := 0; i < burst; i++ {
			c.AfterFunc(time.Millisecond, noop)
		}
		c.Advance(time.Millisecond)
	})
	p.vals["clock.coalesced_fire_ns"] = ns / burst

	c = clock.NewVirtual(epoch)
	task := clock.Every(c, time.Millisecond, noop)
	p.vals["clock.periodic_tick_ns"], _ = p.time(300_000, func(int) { c.Advance(time.Millisecond) })
	task.Stop()
	return nil
}

func probeNetsim(p *prober) error {
	payload := make([]byte, 1024)
	pair := func(limit int64) (*clock.Virtual, transport.Endpoint, error) {
		clk := clock.NewVirtual(epoch)
		net := netsim.New(clk, 1, netsim.LAN())
		src, err := net.NewEndpoint("src")
		if err != nil {
			return nil, nil, err
		}
		dst, err := net.NewEndpoint("dst")
		if err != nil {
			return nil, nil, err
		}
		dst.SetHandler(func(transport.Addr, []byte) {})
		if limit > 0 {
			net.SetEgressLimit("src", limit)
		}
		return clk, src, nil
	}
	clk, src, err := pair(0)
	if err != nil {
		return err
	}
	p.vals["netsim.send_deliver_ns"], p.vals["netsim.send_deliver_allocs"] = p.time(300_000, func(int) {
		_ = src.Send("dst", payload)
		clk.Drain(0)
	})

	// The same through a saturated uplink: 64 KB offered at once to a
	// 1 MB/s egress, so every packet but the first waits in the queue.
	const burst = 64
	if clk, src, err = pair(1_000_000); err != nil {
		return err
	}
	ns, _ := p.time(5_000, func(int) {
		for i := 0; i < burst; i++ {
			_ = src.Send("dst", payload)
		}
		clk.Drain(0)
	})
	p.vals["netsim.egress_queued_ns"] = ns / burst
	return nil
}

func probeMux(p *prober) error {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	a, err := net.NewEndpoint("a")
	if err != nil {
		return err
	}
	b, err := net.NewEndpoint("b")
	if err != nil {
		return err
	}
	ma, mb := transport.NewMux(a), transport.NewMux(b)
	got := 0
	mb.Channel(transport.ChannelGCS).SetHandler(func(transport.Addr, []byte) {})
	mb.Channel(transport.ChannelVideo).SetHandler(func(transport.Addr, []byte) { got++ })
	ma.Channel(transport.ChannelGCS).SetHandler(func(transport.Addr, []byte) {})
	video := ma.Channel(transport.ChannelVideo)
	payload := make([]byte, 1024)
	const n = 300_000
	p.vals["transport.mux_dispatch_ns"], _ = p.time(n, func(int) {
		_ = video.Send("b", payload)
		clk.Drain(0)
	})
	if got != n*p.batches {
		return fmt.Errorf("mux probe: handler ran %d times for %d sends", got, n*p.batches)
	}
	return nil
}

func probeUDP(p *prober) error {
	ports, err := freePorts(2, 0)
	if err != nil {
		return err
	}
	addrA := transport.Addr("127.0.0.1:" + strconv.Itoa(ports[0]))
	addrB := transport.Addr("127.0.0.1:" + strconv.Itoa(ports[1]))
	a, err := transport.ListenUDP(string(addrA), addrA)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenUDP(string(addrB), addrB)
	if err != nil {
		return err
	}
	defer b.Close()

	payload := make([]byte, frameSize)
	b.SetHandler(func(transport.Addr, []byte) {})
	var sendErr error
	p.vals["transport.udp_send_ns"], _ = p.time(20_000, func(int) {
		if err := a.Send(addrB, payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return fmt.Errorf("udp probe: %w", sendErr)
	}
	time.Sleep(50 * time.Millisecond) // let the flood drain before the echo

	// Loopback echo: b returns every datagram, a wakes the sender.
	back := make(chan struct{}, 1) // one round trip is in flight at a time
	b.SetHandler(func(from transport.Addr, pl []byte) { _ = b.Send(addrA, pl) })
	a.SetHandler(func(transport.Addr, []byte) {
		select {
		case back <- struct{}{}:
		default:
		}
	})
	const trips = 2000
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if err := a.Send(addrB, payload); err != nil {
			return fmt.Errorf("udp probe: %w", err)
		}
		select {
		case <-back:
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		case <-time.After(time.Second):
			return fmt.Errorf("udp probe: echo %d lost on loopback", i)
		}
	}
	p.vals["transport.udp_rtt_us"] = median(rtts)
	return nil
}

// gcsGroup builds n converged members of one group on a virtual LAN.
func gcsGroup(n int, delivered *int) (*clock.Virtual, *netsim.Network, []*gcs.Process, []*gcs.Member, error) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	var procs []*gcs.Process
	var members []*gcs.Member
	for i := 0; i < n; i++ {
		id := transport.Addr(fmt.Sprintf("p%d", i))
		ep, err := net.NewEndpoint(id)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		proc := gcs.NewProcess(gcs.Config{Clock: clk, Endpoint: ep})
		h := gcs.Handlers{OnMessage: func(string, gcs.ProcessID, []byte) { *delivered++ }}
		var contacts []gcs.ProcessID
		if i > 0 {
			contacts = []gcs.ProcessID{"p0"}
		}
		m, err := proc.Join("g", h, contacts...)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		procs = append(procs, proc)
		members = append(members, m)
	}
	clk.Advance(5 * time.Second)
	for _, m := range members {
		if got := len(m.View().Members); got != n {
			return nil, nil, nil, nil, fmt.Errorf("gcs probe: group of %d converged to a view of %d", n, got)
		}
	}
	return clk, net, procs, members, nil
}

func probeGCSSteady(p *prober) error {
	delivered := 0
	clk, _, procs, members, err := gcsGroup(3, &delivered)
	if err != nil {
		return err
	}
	defer func() {
		for _, proc := range procs {
			proc.Close()
		}
	}()
	payload := make([]byte, 100)
	const n = 20_000
	var sendErr error
	p.vals["gcs.mcast_ns"], _ = p.time(n, func(int) {
		if err := members[0].MulticastAgreed(payload); err != nil {
			sendErr = err
		}
		clk.Advance(time.Millisecond)
	})
	if sendErr != nil {
		return sendErr
	}
	clk.Advance(time.Second)
	if want := 3 * n * p.batches; delivered != want {
		return fmt.Errorf("gcs probe: %d agreed deliveries, want %d", delivered, want)
	}

	// An idle group: heartbeats, acks and presence only. Host ns per
	// simulated second.
	const simSeconds = 20
	ns, _ := p.time(5, func(int) { clk.Advance(simSeconds * time.Second) })
	p.vals["gcs.idle_ns_per_sim_s"] = ns / simSeconds
	return nil
}

func probeGCSJoin(p *prober) error {
	delivered := 0
	clk, net, procs, members, err := gcsGroup(3, &delivered)
	if err != nil {
		return err
	}
	defer func() {
		for _, proc := range procs {
			proc.Close()
		}
	}()
	viewOf := func(n int, ms ...*gcs.Member) bool {
		for _, m := range ms {
			if len(m.View().Members) != n {
				return false
			}
		}
		return true
	}
	// settle advances virtual time until every listed member holds a view
	// of n, and reports failure after 10 simulated seconds.
	settle := func(n int, ms ...*gcs.Member) bool {
		for step := 0; step < 1000; step++ {
			if viewOf(n, ms...) {
				return true
			}
			clk.Advance(10 * time.Millisecond)
		}
		return false
	}
	var joinErr error
	joins := 0
	ns, _ := p.time(10, func(int) {
		// The joiner's address is new every time: a rebind of a crashed
		// address is a different code path in netsim.
		joins++
		id := transport.Addr(fmt.Sprintf("joiner-%d", joins))
		ep, err := net.NewEndpoint(id)
		if err != nil {
			joinErr = err
			return
		}
		proc := gcs.NewProcess(gcs.Config{Clock: clk, Endpoint: ep})
		m, err := proc.Join("g", gcs.Handlers{}, "p0")
		if err != nil {
			joinErr = err
			return
		}
		if !settle(4, append([]*gcs.Member{m}, members...)...) {
			joinErr = fmt.Errorf("gcs probe: 4th member not in everyone's view after 10 simulated seconds")
		}
		_ = m.Leave()
		if !settle(3, members...) {
			joinErr = fmt.Errorf("gcs probe: group did not shrink back to 3")
		}
		proc.Close()
		_ = ep.Close()
	})
	p.vals["gcs.join_view_us"] = ns / 1e3
	return joinErr
}

func probeLease(p *prober) error {
	// Keeper → Table: every Renew a keeper sends touches the table and is
	// acked at once; 1,000 keepers renew every TTL/3.
	const keepers = 1000
	ttl := 3 * time.Second
	clk := clock.NewVirtual(epoch)
	table := lease.NewTable(clk, ttl, nil)
	ks := make([]*lease.Keeper, keepers)
	for i := range ks {
		id := fmt.Sprintf("viewer-%05d", i)
		var k *lease.Keeper
		k = lease.NewKeeper(clk, ttl, func(seq uint64) {
			table.Touch(id)
			k.Ack(seq)
		}, nil)
		ks[i] = k
	}
	clk.Advance(ttl) // first renewals create the entries
	ns, allocs := p.time(100, func(int) { clk.Advance(ttl / 3) })
	p.vals["lease.renew_ns"], p.vals["lease.renew_allocs"] = ns/keepers, allocs/keepers
	if table.Len() != keepers {
		return fmt.Errorf("lease probe: table holds %d leases, want %d", table.Len(), keepers)
	}
	for _, k := range ks {
		k.Stop()
	}
	table.Close()

	// One sweep over 10k live entries. The TTL is an hour so that nothing
	// expires while three sweeps (TTL/4 apart) are timed.
	const entries, sweeps = 10_000, 3
	ids := make([]string, entries)
	for i := range ids {
		ids[i] = fmt.Sprintf("viewer-%05d", i)
	}
	best := -1.0
	for b := 0; b < p.batches; b++ {
		clk := clock.NewVirtual(epoch)
		table := lease.NewTable(clk, time.Hour, nil)
		for _, id := range ids {
			table.Touch(id)
		}
		t0 := time.Now()
		clk.Advance(sweeps * time.Hour / 4)
		per := float64(time.Since(t0).Nanoseconds()) / (sweeps * entries)
		if best < 0 || per < best {
			best = per
		}
		if table.Len() != entries {
			return fmt.Errorf("lease probe: %d of %d leases survived the sweeps", table.Len(), entries)
		}
		table.Close()
	}
	p.vals["lease.sweep_ns_per_entry"] = best
	return nil
}

func probePlacement(p *prober) error {
	ring := placement.New(placement.DefaultVNodes)
	for i := 0; i < 50; i++ {
		ring.Add(fmt.Sprintf("server-%02d", i))
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("title-%03d", i)
	}
	owners := 0
	p.vals["placement.lookup_ns"], _ = p.time(500_000, func(i int) { owners += len(ring.LookupN(keys[i%len(keys)], 2)) })
	if owners == 0 {
		return fmt.Errorf("placement probe: no owner found")
	}
	return nil
}

func probeBuffer(p *prober) error {
	pipe := buffer.New(buffer.DefaultConfig())
	next := uint32(0)
	p.vals["buffer.insert_tick_ns"], _ = p.time(1_000_000, func(int) {
		pipe.Insert(buffer.FrameMeta{Index: next, Class: wire.FrameP, Size: 5800})
		pipe.Tick()
		next++
	})
	return nil
}

func probeFlowctl(p *prober) error {
	pol := flowctl.NewPolicy(flowctl.DefaultParams())
	p.vals["flowctl.policy_ns"], _ = p.time(2_000_000, func(i int) { pol.OnFrame(50+i%20, 20) })

	now := epoch
	sh := flowctl.NewShaper(func() time.Time {
		now = now.Add(100 * time.Microsecond)
		return now
	}, flowctl.ShaperParams{Rate: 2_500_000})
	p.vals["flowctl.shaper_take_ns"], _ = p.time(2_000_000, func(int) { sh.TakeReserved(frameSize) })
	return nil
}

func probeMPEG(p *prober) error {
	var movies []*mpeg.Movie
	ns, _ := p.time(3, func(i int) {
		movies = append(movies, mpeg.Generate("m", mpeg.StreamConfig{Seed: int64(len(movies) + 1)}))
	})
	p.vals["mpeg.generate_ms"] = ns / 1e6
	// Packets caches per movie, so every call needs a fresh one.
	next := 0
	ns, _ = p.time(3, func(int) {
		movies[next].Packets(byte(transport.ChannelVideo))
		next++
	})
	p.vals["mpeg.packet_table_ms"] = ns / 1e6
	return nil
}

func probeObs(p *prober) error {
	c := obs.NewRegistry("probe", time.Now).Counter("probe.hits")
	p.vals["obs.counter_add_ns"], _ = p.time(5_000_000, func(int) { c.Inc() })
	if c.Load() == 0 {
		return fmt.Errorf("obs probe: counter did not count")
	}
	return nil
}

// probeSweep is the sweep engine's one claim, measured: 64 chaos seeds on
// every scheduler thread the benchmark allows itself, job CPU over wall.
func probeSweep(p *prober) error {
	best := 0.0
	for b := 0; b < p.batches && b < 2; b++ {
		_, sum, err := chaos.Sweep(context.Background(), 1, 64, runtime.GOMAXPROCS(0), nil, nil)
		if err != nil {
			return err
		}
		if s := sum.Speedup(); s > best {
			best = s
		}
	}
	p.vals["sweep.speedup_2w"] = best
	return nil
}

// simDeployment is one server and its viewers over the virtual LAN, built
// the way a library user would.
func simDeployment(movieLen time.Duration) (*clock.Virtual, *core.Deployment, error) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	dep, err := core.Deploy(core.DeployOptions{
		Clock:   clk,
		Network: net,
		Servers: []string{"server-1"},
		Movies:  []*core.Movie{core.GenerateMovie("feature", movieLen, 1)},
	})
	if err != nil {
		return nil, nil, err
	}
	clk.Advance(time.Second)
	return clk, dep, nil
}

func probeSessionOpen(p *prober) error {
	clk, dep, err := simDeployment(30 * time.Second)
	if err != nil {
		return err
	}
	defer dep.Stop()
	// Sequential Open → OpenReply. Each viewer leaves again at once, so
	// the server answers every Open with the same handful of sessions.
	var opened atomic.Int64
	var openErr error
	var total time.Duration
	open := func() {
		id := fmt.Sprintf("viewer-%06d", opened.Add(1))
		c, err := dep.NewClient(id)
		if err != nil {
			openErr = err
			return
		}
		t0 := time.Now()
		err = c.Watch("feature")
		for step := 0; err == nil && c.State() != client.StateWatching; step++ {
			if step == 5000 {
				err = fmt.Errorf("session probe: %s not watching after 5 simulated seconds", id)
			}
			clk.Advance(time.Millisecond)
		}
		total += time.Since(t0)
		if err != nil {
			openErr = err
		}
		_ = c.StopWatching()
		c.Close()
	}
	const opens = 200
	best := -1.0
	for b := 0; b < p.batches; b++ {
		total = 0
		for i := 0; i < opens; i++ {
			open()
		}
		if per := float64(total.Nanoseconds()) / opens / 1e3; best < 0 || per < best {
			best = per
		}
	}
	p.vals["server.session_open_us"] = best
	return openErr
}

func probeStream(p *prober) error {
	clk, dep, err := simDeployment(10 * time.Minute)
	if err != nil {
		return err
	}
	defer dep.Stop()
	const viewers = 50
	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < viewers; i++ {
		c, err := dep.NewClient(fmt.Sprintf("viewer-%02d", i))
		if err != nil {
			return err
		}
		clients = append(clients, c)
		if err := c.Watch("feature"); err != nil {
			return err
		}
		clk.Advance(20 * time.Millisecond)
	}
	clk.Advance(15 * time.Second) // buffers full, flow control settled
	srv := dep.Server("server-1")
	best := -1.0
	for b := 0; b < p.batches; b++ {
		before := srv.Stats().FramesSent
		t0 := time.Now()
		clk.Advance(10 * time.Second)
		d := time.Since(t0)
		frames := srv.Stats().FramesSent - before
		if frames < viewers*10*25 {
			return fmt.Errorf("stream probe: only %d frames in 10 simulated seconds for %d viewers", frames, viewers)
		}
		if per := float64(d.Nanoseconds()) / float64(frames); best < 0 || per < best {
			best = per
		}
	}
	p.vals["server.stream_ns_per_frame"] = best
	return nil
}
