package flowctl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/wire"
)

// The closed loop in miniature: a server paced by a RateController feeds a
// buffer.Pipeline that a display drains at the nominal rate, and the
// client's Policy answers each frame with requests back to whichever server
// is serving when they arrive. Frames and requests are plain calls delayed
// by a fixed one-way latency on a clock.Virtual; the link never limits the
// rate, so it always has spare rate for a burst.

// loopDelay is the one-way latency of frames and of requests.
const loopDelay = 5 * time.Millisecond

// loopFPS is the stream's nominal rate, at which the display drains.
const loopFPS = 30

// loopGOP is the stream's class pattern, with sizes that average about
// 5.7 KB a frame, so the default decoder buffer holds about 38 frames.
const loopGOP = "IBBPBBPBBPBB"

func loopFrame(i uint32) buffer.FrameMeta {
	switch loopGOP[i%uint32(len(loopGOP))] {
	case 'I':
		return buffer.FrameMeta{Index: i, Class: wire.FrameI, Size: 18_000}
	case 'P':
		return buffer.FrameMeta{Index: i, Class: wire.FrameP, Size: 6_000}
	default:
		return buffer.FrameMeta{Index: i, Class: wire.FrameB, Size: 4_000}
	}
}

// loopServer is one serving replica: its rate state, the next frame it
// sends, and whether it has crashed.
type loopServer struct {
	rc   *RateController
	next uint32
	dead bool
}

type loop struct {
	p   Params
	clk *clock.Virtual
	buf *buffer.Pipeline
	pol *Policy
	srv *loopServer // the serving replica; nil during an outage

	refilled    bool   // combined occupancy has reached the low water mark once
	stallsAtRef uint64 // Stalls when it first did
}

func newLoop(p Params) *loop {
	l := &loop{
		p:   p,
		clk: clock.NewVirtual(time.Unix(0, 0)),
		buf: buffer.New(p.Buffer),
		pol: NewPolicy(p),
	}
	period := time.Second / loopFPS
	var display func()
	display = func() {
		l.buf.Tick()
		l.clk.Schedule(period, display)
	}
	l.clk.Schedule(period, display)
	l.serve(&loopServer{rc: NewRateController(p, loopFPS)})
	return l
}

// serve makes s the serving replica and starts its pacing and its
// once-a-second emergency decay.
func (l *loop) serve(s *loopServer) {
	l.srv = s
	var send, decay func()
	send = func() {
		if s.dead {
			return
		}
		f := loopFrame(s.next)
		s.next++
		l.clk.Schedule(loopDelay, func() { l.receive(f) })
		l.clk.Schedule(time.Second/time.Duration(s.rc.Rate()), send)
	}
	decay = func() {
		if s.dead {
			return
		}
		s.rc.DecayTick()
		l.clk.Schedule(time.Second, decay)
	}
	send()
	l.clk.Schedule(time.Second, decay)
}

// receive is the client: file the frame, consult the policy, and send any
// request to whoever serves when it arrives — nobody, during an outage.
func (l *loop) receive(f buffer.FrameMeta) {
	l.buf.Insert(f)
	occ := l.buf.Occupancy()
	if !l.refilled && occ.CombinedFrames >= MarksOf(l.p.Buffer).LowWater {
		l.refilled, l.stallsAtRef = true, l.buf.Counters().Stalls
	}
	k, ok := l.pol.OnFrame(occ.CombinedFrames, occ.SoftwareFrames)
	if !ok {
		return
	}
	l.clk.Schedule(loopDelay, func() {
		if l.srv != nil {
			l.srv.rc.OnRequest(k, occ.CombinedFrames)
		}
	})
}

// takeover crashes the serving replica and, after outage, starts a
// successor at the crashed one's base rate, stale frames behind the
// frame it would have sent next (§5.2: it resumes from the last synced
// offset and rate).
func (l *loop) takeover(outage time.Duration, stale uint32) {
	old := l.srv
	old.dead = true
	l.srv = nil
	l.clk.Schedule(outage, func() {
		s := &loopServer{rc: NewRateController(l.p, loopFPS), next: old.next - min(stale, old.next)}
		s.rc.SetBase(old.rc.Base())
		l.serve(s)
	})
}

// loopOutcome is what one scripted run ends with.
type loopOutcome struct {
	buffered        int    // combined occupancy at the crash, frames
	overflow, stall uint64 // overflow discards; stalls after the first refill
}

// runLoop plays 20 s of steady state, one outage of g after which the
// successor resumes stale frames behind, and 20 s more.
func runLoop(p Params, g time.Duration, stale uint32) loopOutcome {
	const crashAt, after = 20 * time.Second, 20 * time.Second
	l := newLoop(p)
	l.clk.Advance(crashAt)
	out := loopOutcome{buffered: l.buf.Occupancy().CombinedFrames}
	l.takeover(g, stale)
	l.clk.Advance(g + after)
	c := l.buf.Counters()
	out.overflow, out.stall = c.OverflowDropped, c.Stalls-l.stallsAtRef
	return out
}

// loopViolations sweeps the outage from 0 to 2 s in 10 ms steps with the
// successor 0 or 15 frames stale, and lists every run that discards a frame
// on overflow — the link always has spare rate — or stalls after the first
// refill although the buffer held more than it had to bridge: the outage,
// plus the stale frames the successor resends at the base rate, which the
// client already has.
func loopViolations(p Params) []string {
	var bad []string
	for _, stale := range []uint32{0, 15} {
		for g := time.Duration(0); g <= 2*time.Second; g += 10 * time.Millisecond {
			o := runLoop(p, g, stale)
			bufferedTime := time.Duration(o.buffered) * time.Second / loopFPS
			bridge := g + time.Duration(stale)*time.Second/loopFPS
			if o.overflow != 0 || (o.stall != 0 && bridge < bufferedTime) {
				bad = append(bad, fmt.Sprintf("outage %v, %d stale (buffered %v): %d overflow discards, %d stalls",
					g, stale, bufferedTime, o.overflow, o.stall))
			}
		}
	}
	return bad
}

// TestClosedLoopRecoversFromOutage: across every scripted outage the loop
// refills without overshooting a full buffer, and never stalls when the
// buffer held more than the outage (and the stale resend) lasted. Under §4.1's lockout the same
// sweep overflows: the burst keeps running while the client's decreases
// are ignored.
func TestClosedLoopRecoversFromOutage(t *testing.T) {
	p := DefaultParams()
	if bad := loopViolations(p); len(bad) != 0 {
		t.Errorf("%d of 402 runs violate the loop's contract:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	p.PaperLockout = true
	if bad := loopViolations(p); len(bad) == 0 {
		t.Errorf("under PaperLockout no run overflows; the harness no longer reproduces the overshoot")
	} else {
		t.Logf("under PaperLockout %d of 402 runs violate it; first: %s", len(bad), bad[0])
	}
}
