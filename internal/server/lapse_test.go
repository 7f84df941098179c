package server

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// framesSent is the frame count both servers of the rig have transmitted.
func (r *pairRig) framesSent() uint64 {
	return r.s1.Stats().FramesSent + r.s2.Stats().FramesSent
}

// offsetOf returns the next frame s's session for clientID will send, and
// whether s serves the client at all.
func offsetOf(s *Server, clientID string) (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[clientID]
	if sess == nil {
		return 0, false
	}
	return sess.rec.Offset, true
}

// TestCrashedViewerSessionEnds: a session-group viewer whose endpoint
// crashes is streamed to only until its session view loses it, and after
// lapseGrace its session ends with a tombstone. The tombstone reaches the
// peer, so when the serving server later fails too the peer does not take
// the dead viewer over.
func TestCrashedViewerSessionEnds(t *testing.T) {
	r := newPairRig(t)
	c := r.viewer("c1", false)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(8 * time.Second) // 10 s into the run
	if !r.s1.HasSession("c1") {
		t.Fatal("s1 does not serve c1 before the crash")
	}
	r.net.Crash("c1")
	r.clk.Advance(time.Second)
	sent := r.framesSent()

	r.clk.Advance(lapseGrace + 2*time.Second)
	if n := r.framesSent() - sent; n != 0 {
		t.Errorf("%d frames sent to the crashed viewer after crash + 1 s, want 0", n)
	}
	for _, s := range []*Server{r.s1, r.s2} {
		if s.HasSession("c1") {
			t.Errorf("%s still serves c1 %v after it crashed", s.ID(), lapseGrace+3*time.Second)
		}
		if knows(s, "c1") {
			t.Errorf("%s still knows c1 after the tombstone", s.ID())
		}
	}

	r.s1.Stop()
	r.net.Crash("s1")
	r.clk.Advance(5 * time.Second)
	if r.s2.HasSession("c1") || r.s2.Stats().Takeovers != 0 {
		t.Errorf("s2 took the crashed viewer over when s1 failed (takeovers %d)", r.s2.Stats().Takeovers)
	}
}

// TestClientCutPausesStream: while a cut keeps the viewer out of its session
// view, the server sends nothing, and at the heal it resumes where the viewer
// was (chaos seed 162's shape). A server that streamed on into the void
// would make the viewer skip ≈ 110 frames at the heal of this 3.5 s cut.
func TestClientCutPausesStream(t *testing.T) {
	r := newPairRig(t)
	c := r.viewer("c1", false)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(8 * time.Second)
	before := c.Counters()
	r.net.Partition([]transport.Addr{"c1"}, []transport.Addr{"s1", "s2"})
	r.clk.Advance(time.Second) // the session view has lost the client
	sent := r.framesSent()
	r.clk.Advance(2500 * time.Millisecond)
	if n := r.framesSent() - sent; n != 0 {
		t.Errorf("%d frames sent while the viewer was out of its session view, want 0", n)
	}
	r.net.Heal()
	r.clk.Advance(5 * time.Second)
	if n := r.framesSent() - sent; n < 100 {
		t.Errorf("%d frames sent in the 5 s after the heal: the stream did not resume", n)
	}
	if skipped := c.Counters().GapSkipped - before.GapSkipped; skipped > 30 {
		t.Errorf("%d frames skipped across a 3.5 s cut, want ≤ 30", skipped)
	}
}

// TestKeptLapsedSessionAdoptsPeerRecord: s1's session lapses in a split
// while s2 serves the viewer, and the deal at the heal hands the viewer back
// to s1. s1 resumes from s2's record, fresher than its own lapse, rather than
// ≈ 6 s behind the viewer, which would stall it (chaos seed 182's shape).
func TestKeptLapsedSessionAdoptsPeerRecord(t *testing.T) {
	r := newPairRig(t)
	c := r.viewer("c1", false)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(8 * time.Second)
	r.net.Partition([]transport.Addr{"c1", "s2"}, []transport.Addr{"s1"})
	r.clk.Advance(6 * time.Second)
	if !r.s2.HasSession("c1") {
		t.Fatal("s2 did not take c1 over in the split")
	}
	r.net.Heal()
	healed := c.Counters()
	r.clk.Advance(10 * time.Second)
	if !r.s1.HasSession("c1") || r.s2.HasSession("c1") {
		t.Fatalf("after the heal s1 serves c1: %v, s2: %v; want s1 alone", r.s1.HasSession("c1"), r.s2.HasSession("c1"))
	}
	if n := c.Counters().Stalls - healed.Stalls; n != 0 {
		t.Errorf("viewer stalled %d ticks after the heal, want 0", n)
	}
}

// TestNeverReadyTakeoverDoesNotRewind: across a split s2 takes the viewer
// over but never reaches it, while s1 keeps serving until a cut lapses its
// session just before the heal. s2's record is as old as the one it
// inherited, so the deal that keeps the viewer at s1 does not rewind s1 to
// it (chaos seed 1364's shape).
func TestNeverReadyTakeoverDoesNotRewind(t *testing.T) {
	r := newPairRig(t)
	c := r.viewer("c1", false)
	if err := c.Watch("m"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(8 * time.Second)
	r.net.Partition([]transport.Addr{"c1", "s1"}, []transport.Addr{"s2"})
	r.clk.Advance(5 * time.Second)
	if !r.s2.HasSession("c1") {
		t.Fatal("s2 did not take c1 over in the split")
	}
	r.net.SetLinkDown("c1", "s1", true)
	r.clk.Advance(time.Second)
	held, _ := offsetOf(r.s1, "c1")
	r.net.Heal()
	healed := c.Counters()
	r.clk.Advance(5 * time.Second)
	at, ok := offsetOf(r.s1, "c1")
	if !ok || r.s2.HasSession("c1") {
		t.Fatalf("after the heal s1 serves c1: %v, s2: %v; want s1 alone", ok, r.s2.HasSession("c1"))
	}
	if at < held+100 {
		t.Errorf("s1 is at frame %d 5 s after the heal, held %d at the lapse: rewound", at, held)
	}
	if n := c.Counters().Stalls - healed.Stalls; n != 0 {
		t.Errorf("viewer stalled %d ticks after the heal, want 0", n)
	}
}
