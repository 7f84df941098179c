package sim

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestTableScaleReduced runs the two-tier table's core at the CI size (10
// servers / 1,000 leased viewers): every viewer must stream healthily, and
// the ring-ordered anycast must land each Open on its owner first try.
func TestTableScaleReduced(t *testing.T) {
	res := scaleTrial(1, scaleTitles(1, 10), 1000, true, true, nil)
	if res.healthy < 990 {
		t.Fatalf("healthy = %d of 1000, want ≥ 990 (starved %d, worst freeze %d)",
			res.healthy, res.starved, res.worstFreeze)
	}
	if res.starved != 0 {
		t.Fatalf("starved = %d, want 0", res.starved)
	}
	if res.opensPerViewer != 1.0 {
		t.Fatalf("opens/viewer = %.2f, want 1.00 (ring-ordered anycast missed owners)",
			res.opensPerViewer)
	}
}

// TestTableScaleWorkersEquivalent pins the sweep determinism contract for
// the new table in its production configuration (striped egress on, dense
// netsim indexing always on): the rendered bytes are identical whether its
// load points run on one worker or eight.
func TestTableScaleWorkersEquivalent(t *testing.T) {
	points := []scalePoint{{servers: 4, viewers: 120}, {servers: 6, viewers: 180}}
	render := func(workers int) []byte {
		SetParallelism(workers)
		defer SetParallelism(0)
		var buf bytes.Buffer
		if err := tableScale(7, points, true, true).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, eight := render(1), render(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("table differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}
	if len(bytes.Split(one, []byte("\n"))) < 4 {
		t.Fatalf("table suspiciously short: %q", one)
	}
	if !bytes.Contains(one, []byte(strconv.Itoa(points[0].viewers))) {
		t.Fatalf("table missing viewer column: %s", one)
	}
}

// TestTableScaleStripedEquivalent pins what licenses turning striped egress
// on for the production table: per-frame timing quantizes differently, but
// the aggregate health metrics the table reports — healthy, starved, stalls,
// worst freeze, opens — render byte-identically with the feature on and off
// at the CI load point.
func TestTableScaleStripedEquivalent(t *testing.T) {
	points := []scalePoint{{servers: 10, viewers: 1_000}}
	render := func(striped bool) []byte {
		var buf bytes.Buffer
		if err := tableScale(1, points, striped, false).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off, on := render(false), render(true)
	if !bytes.Equal(off, on) {
		t.Fatalf("scale table differs with striped egress:\noff:\n%s\non:\n%s", off, on)
	}
}

// TestTableScaleBroadcastEquivalent pins what licenses turning broadcast
// fan-out on for the production table: a stripe beat's survivors arrive
// together at the last slot of the beat's serialization train instead of
// one slot apart, but the aggregate health metrics the table reports render
// byte-identically with batching on and off at the CI load point.
func TestTableScaleBroadcastEquivalent(t *testing.T) {
	points := []scalePoint{{servers: 10, viewers: 1_000}}
	render := func(broadcast bool) []byte {
		var buf bytes.Buffer
		if err := tableScale(1, points, true, broadcast).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off, on := render(false), render(true)
	if !bytes.Equal(off, on) {
		t.Fatalf("scale table differs with broadcast fan-out:\noff:\n%s\non:\n%s", off, on)
	}
}

// TestTableScaleBroadcastChaosEquivalent is the chaos-seed spot check for
// the batch path's per-destination divergence fallback: with a mid-stream
// partition (blocked pairs), a network-wide loss burst (per-destination
// loss draws from the shared seeded RNG) and a lossy per-pair override all
// active while stripes are beating, a broadcast run must classify every
// viewer exactly as the per-send run does — the fallback draws and
// schedules per destination in batch order, which is the per-send order.
func TestTableScaleBroadcastChaosEquivalent(t *testing.T) {
	disrupt := func(net *netsim.Network, clk *clock.Virtual, servers []string) {
		clk.Advance(2 * time.Second) // streams established
		// Per-pair override: server-0's link to server-1 turns lossy and
		// slow, forcing every batched packet on that pair through the
		// divergence fallback (the pair also carries sync traffic).
		net.SetProfile(transport.Addr(servers[0]), transport.Addr(servers[1]),
			netsim.Profile{Delay: 5 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.2, Bandwidth: 10 * 1000 * 1000 / 8})
		// Partition one server from another: blocked-pair drops inside and
		// outside batches.
		net.SetLinkDown(transport.Addr(servers[1]), transport.Addr(servers[2]), true)
		// Network-wide loss burst: every batched destination consumes an
		// extra-loss draw, in attach order.
		net.SetExtraLoss(0.05)
		clk.Advance(2 * time.Second)
		net.SetExtraLoss(0)
		net.SetLinkDown(transport.Addr(servers[1]), transport.Addr(servers[2]), false)
	}
	run := func(broadcast bool) scaleResult {
		return scaleTrial(11, scaleTitles(11, 4), 160, true, broadcast, disrupt)
	}
	off, on := run(false), run(true)
	if off != on {
		t.Fatalf("chaos trial differs with broadcast fan-out:\noff: %+v\non:  %+v", off, on)
	}
	if off.healthy == 0 {
		t.Fatalf("chaos trial produced no healthy viewers: %+v", off)
	}
}
