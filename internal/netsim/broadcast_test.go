package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
)

// broadcastWorld builds one sender and nDst receivers, each counting its
// deliveries, on a network seeded identically across calls.
type broadcastWorld struct {
	r      *rig
	src    transport.RefSender
	refs   []transport.AddrRef
	counts []int
	bytes  []int
}

func newBroadcastWorld(t *testing.T, prof Profile, nDst int) *broadcastWorld {
	t.Helper()
	w := &broadcastWorld{r: newRig(t, prof)}
	w.src = w.r.endpoint(t, "src").(transport.RefSender)
	w.counts = make([]int, nDst)
	w.bytes = make([]int, nDst)
	for i := 0; i < nDst; i++ {
		name := transport.Addr('A' + byte(i))
		ep := w.r.endpoint(t, name)
		i := i
		ep.SetHandler(func(_ transport.Addr, p []byte) {
			w.counts[i]++
			w.bytes[i] += len(p)
		})
		w.refs = append(w.refs, w.src.ResolveAddr(name))
	}
	return w
}

// chaosSetup applies the same fault mix to a world: a lossy/jittery/slow
// override on one pair, a duplicating override on another, a blocked pair,
// and a network-wide extra-loss burst — every divergence class the batch
// path can hit.
func (w *broadcastWorld) chaosSetup() {
	w.r.net.SetProfile("src", "B", Profile{Delay: 3 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.3, Bandwidth: 1000 * 1000})
	w.r.net.SetProfile("src", "C", Profile{Delay: time.Millisecond, Duplicate: 0.5})
	w.r.net.SetLinkDown("src", "D", true)
	w.r.net.SetExtraLoss(0.1)
}

// TestBroadcastMatchesLoop pins the batch path's determinism contract under
// divergence: with per-pair overrides (loss, jitter, duplication), a blocked
// pair and an extra-loss burst all active, a run that batches its fan-out
// must consume the seeded RNG in the same order as one that loops over
// SendStableRef — so per-destination delivery counts and the aggregate
// Stats come out identical, and after both runs drain, each network's RNG
// is at the same position: a path that skipped or added a draw anywhere
// would show there even if the counts happened to agree.
func TestBroadcastMatchesLoop(t *testing.T) {
	const nDst, rounds = 8, 200
	payload := []byte("stable-frame-payload")

	run := func(batch bool) ([]int, Stats, int64) {
		w := newBroadcastWorld(t, Profile{Delay: time.Millisecond, Bandwidth: 10 * 1000 * 1000}, nDst)
		w.chaosSetup()
		if batch {
			payloads := make([][]byte, nDst)
			for i := range payloads {
				payloads[i] = payload
			}
			for r := 0; r < rounds; r++ {
				_ = w.src.SendStableRefBatch(w.refs, payloads)
				w.r.clk.Advance(5 * time.Millisecond)
			}
		} else {
			for r := 0; r < rounds; r++ {
				for _, ref := range w.refs {
					_ = w.src.SendStableRef(ref, payload)
				}
				w.r.clk.Advance(5 * time.Millisecond)
			}
		}
		w.r.clk.Drain(0)
		return w.counts, w.r.net.Stats(), w.r.net.fate.(seededFate).rng.Int63()
	}

	loopCounts, loopStats, loopNext := run(false)
	batchCounts, batchStats, batchNext := run(true)
	for i := range loopCounts {
		if loopCounts[i] != batchCounts[i] {
			t.Errorf("dst %d: loop delivered %d, batch delivered %d", i, loopCounts[i], batchCounts[i])
		}
	}
	if loopStats != batchStats {
		t.Fatalf("stats differ:\nloop:  %+v\nbatch: %+v", loopStats, batchStats)
	}
	if loopNext != batchNext {
		t.Fatalf("next RNG draw differs after draining: loop %d, batch %d", loopNext, batchNext)
	}
	// Sanity: the chaos mix actually exercised loss, duplication and blocks.
	if loopStats.Dropped == 0 {
		t.Fatal("no drops — chaos setup inert")
	}
	if loopStats.Delivered <= uint64(rounds*nDst)-loopStats.Dropped {
		t.Fatalf("no duplicates observed: delivered %d, sent %d, dropped %d",
			loopStats.Delivered, loopStats.Sent, loopStats.Dropped)
	}
}

// TestBroadcastCoalescedDelivery pins the batch's one-event shape: on a
// uniform profile every destination's payload arrives at the same instant —
// the last slot of the batch's shared-NIC serialization train, exactly
// where the final looped send would have landed.
func TestBroadcastCoalescedDelivery(t *testing.T) {
	const nDst = 4
	w := newBroadcastWorld(t, Profile{Delay: time.Millisecond}, nDst)
	w.r.net.SetEgressLimit("src", 1000*1000)
	var times []time.Time
	for i := 0; i < nDst; i++ {
		name := transport.Addr('A' + byte(i))
		ep := w.r.net.eps[w.refs[i]]
		prev := ep.handler
		_ = name
		ep.handler = func(from transport.Addr, p []byte) {
			times = append(times, w.r.clk.Now())
			prev(from, p)
		}
	}
	payloads := make([][]byte, nDst)
	pkt := make([]byte, 1000)
	for i := range payloads {
		payloads[i] = pkt
	}
	if err := w.src.SendStableRefBatch(w.refs, payloads); err != nil {
		t.Fatal(err)
	}
	w.r.clk.Drain(0)
	if len(times) != nDst {
		t.Fatalf("delivered %d of %d", len(times), nDst)
	}
	// 1000 bytes at 1 MB/s = 1ms of shared-NIC serialization per packet;
	// the train is nDst packets long, plus the 1ms propagation delay.
	want := simEpoch.Add(time.Millisecond + nDst*time.Millisecond)
	for i, at := range times {
		if !at.Equal(want) {
			t.Errorf("dst %d delivered at %v, want coalesced instant %v", i, at, want)
		}
	}
	if got := w.r.net.Stats().Delivered; got != nDst {
		t.Fatalf("delivered = %d, want %d", got, nDst)
	}
}

// TestBroadcastRefSharedPayload: batch entries may alias one another —
// encode once, deliver N, with the very same backing array reaching every
// handler.
func TestBroadcastRefSharedPayload(t *testing.T) {
	const nDst = 5
	w := newBroadcastWorld(t, Profile{Delay: time.Millisecond}, nDst)
	shared := []byte("one-buffer-for-everyone")
	var aliased int
	for i := 0; i < nDst; i++ {
		ep := w.r.net.eps[w.refs[i]]
		prev := ep.handler
		ep.handler = func(from transport.Addr, p []byte) {
			if len(p) == len(shared) && &p[0] == &shared[0] {
				aliased++
			}
			prev(from, p)
		}
	}
	payloads := make([][]byte, nDst)
	for i := range payloads {
		payloads[i] = shared
	}
	if err := w.src.SendStableRefBatch(w.refs, payloads); err != nil {
		t.Fatal(err)
	}
	w.r.clk.Drain(0)
	if aliased != nDst {
		t.Fatalf("payload aliased to %d of %d handlers; broadcast must not copy", aliased, nDst)
	}
}

// TestBroadcastBadDestinations: a never-interned ref drops with ErrNoRoute
// while the rest of the batch still goes through, and mismatched slice
// lengths are rejected outright.
func TestBroadcastBadDestinations(t *testing.T) {
	w := newBroadcastWorld(t, Profile{}, 2)
	if err := w.src.SendStableRefBatch(w.refs, [][]byte{{1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	dsts := []transport.AddrRef{w.refs[0], transport.AddrRef(9999), w.refs[1]}
	p := []byte("x")
	err := w.src.SendStableRefBatch(dsts, [][]byte{p, p, p})
	if !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	w.r.clk.Drain(0)
	if w.counts[0] != 1 || w.counts[1] != 1 {
		t.Fatalf("valid destinations got %v, want one delivery each", w.counts)
	}
	st := w.r.net.Stats()
	if st.Sent != 3 || st.Delivered != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Sent 3 / Delivered 2 / Dropped 1", st)
	}
}
