package flowctl

import "repro/internal/wire"

// zone classifies an occupancy reading against the thresholds.
type zone int

const (
	zoneEmergencyMajor zone = iota + 1 // software buffer below 15%
	zoneEmergencyMinor                 // software buffer below 30%
	zoneBelowLow                       // combined below the low water mark
	zoneBetween                        // combined between the water marks
	zoneAboveHigh                      // combined at or above the high water mark
)

// Policy is the client-side flow-control engine: Figure 2 of the paper.
// The increase/decrease steering runs on the combined occupancy; the
// emergency thresholds watch the software buffer, which is the part that
// drains during an irregularity period (the decoder buffer sits behind
// it). Policy is not safe for concurrent use; the client drives it from
// its single event context.
type Policy struct {
	m marks

	sinceLast int // frames received since the last request was emitted
	prevOcc   int // combined occupancy when the previous request was emitted
	started   bool

	// Emergency requests are edge-triggered per dip: once an emergency is
	// sent, another is sent only after the software buffer recovers above
	// the minor threshold (the server ignores requests while its
	// emergency quantity is positive anyway, §4.1). As a safety net, a
	// dip that persists long past the previous boost's decay re-arms by
	// frame count.
	emergencyArmed bool
	framesInDip    int
}

// rearmAfterFrames re-arms a stuck emergency trigger after ~3 seconds of
// sustained starvation at the nominal rate — by then any previous boost
// has fully decayed, so a fresh request is meaningful.
const rearmAfterFrames = 90

// NewPolicy returns a Policy with the given parameters. It panics if the
// parameters are invalid: they are static configuration, and a
// misconfigured control loop must fail loudly at startup.
func NewPolicy(p Params) *Policy {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Policy{m: MarksOf(p.Buffer), emergencyArmed: true}
}

// Reset reinitializes the policy in place to the state NewPolicy would
// return — used when a client re-watches, so a long-lived viewer reuses
// one Policy across incarnations instead of allocating a fresh one.
func (f *Policy) Reset(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	*f = Policy{m: MarksOf(p.Buffer), emergencyArmed: true}
}

func (f *Policy) zoneOf(combined, software int) zone {
	switch {
	case software < f.m.CriticalMajor:
		return zoneEmergencyMajor
	case software < f.m.CriticalMinor:
		return zoneEmergencyMinor
	case combined < f.m.LowWater:
		return zoneBelowLow
	case combined < f.m.HighWater:
		return zoneBetween
	default:
		return zoneAboveHigh
	}
}

// OnFrame is invoked for every received frame with the combined and
// software buffer occupancies after insertion. It returns the request to
// send now, if any.
func (f *Policy) OnFrame(combined, software int) (wire.FlowKind, bool) {
	f.sinceLast++
	z := f.zoneOf(combined, software)

	// Re-arm the emergency trigger once the software buffer recovered,
	// or after a long-sustained dip (the previous boost has decayed).
	if z != zoneEmergencyMajor && z != zoneEmergencyMinor {
		f.emergencyArmed = true
		f.framesInDip = 0
	} else {
		f.framesInDip++
		if f.framesInDip >= rearmAfterFrames {
			f.emergencyArmed = true
			f.framesInDip = 0
		}
	}

	every := UrgentEvery
	if z == zoneBetween {
		every = NormalEvery
	}
	if f.sinceLast < every {
		// Emergencies preempt the cadence on the downward edge: the
		// first frame observed below a critical threshold triggers one.
		if (z == zoneEmergencyMajor || z == zoneEmergencyMinor) && f.emergencyArmed {
			return f.emit(combined, emergencyKind(z)), true
		}
		return 0, false
	}

	switch z {
	case zoneEmergencyMajor, zoneEmergencyMinor:
		if f.emergencyArmed {
			return f.emit(combined, emergencyKind(z)), true
		}
		// Emergency already requested this dip; keep asking for more
		// bandwidth at the urgent cadence (the server ignores these while
		// its emergency quantity is positive — they matter afterwards).
		return f.emit(combined, wire.FlowIncrease), true
	case zoneBelowLow:
		return f.emit(combined, wire.FlowIncrease), true
	case zoneAboveHigh:
		return f.emit(combined, wire.FlowDecrease), true
	default: // zoneBetween: steer by the trend since the last request
		prev := f.prevOcc
		f.sinceLast = 0
		if !f.started {
			f.started = true
			f.prevOcc = combined
			return 0, false
		}
		switch {
		case combined < prev:
			return f.emit(combined, wire.FlowIncrease), true
		case combined > prev:
			return f.emit(combined, wire.FlowDecrease), true
		default:
			f.prevOcc = combined
			return 0, false
		}
	}
}

func emergencyKind(z zone) wire.FlowKind {
	if z == zoneEmergencyMajor {
		return wire.FlowEmergencyMajor
	}
	return wire.FlowEmergencyMinor
}

func (f *Policy) emit(combined int, k wire.FlowKind) wire.FlowKind {
	f.sinceLast = 0
	f.prevOcc = combined
	f.started = true
	if k == wire.FlowEmergencyMajor || k == wire.FlowEmergencyMinor {
		f.emergencyArmed = false
		f.framesInDip = 0
	}
	return k
}

// Rearm forces the emergency trigger armed — called when the client knows
// the situation changed (a seek flushed the buffers), so the next frame
// below a critical threshold requests a fresh refill.
func (f *Policy) Rearm() { f.emergencyArmed = true }
