// Package flowctl implements both halves of the paper's loosely-coupled,
// feedback-based flow control (§4):
//
//   - Policy is the client side: the Figure 2 water-mark policy that emits
//     increase/decrease requests at f_normal or f_urgent frequency based on
//     buffer occupancy, plus the two-level emergency requests of §4.1;
//   - RateController is the server side: a per-client transmission rate
//     adjusted ±1 frame/s per request, with a decaying emergency quantity
//     that refills the client's buffers quickly after an irregularity
//     period without persisting long enough to overflow them.
package flowctl

import "fmt"

// Params collects every tunable of the flow-control mechanism. The zero
// value is not valid; use DefaultParams (the paper's prototype values) and
// override as needed.
type Params struct {
	// CombinedCapacity is the total client buffer space in frames
	// (software + hardware ≈ 2.4 s of video).
	CombinedCapacity int
	// SoftwareCapacity is the software buffer's share, in frames. The
	// emergency thresholds are fractions of it: the software buffer is
	// the early-warning gauge — it drains first during an irregularity
	// period while the decoder buffer is still being consumed.
	SoftwareCapacity int
	// LowWater and HighWater are combined-occupancy thresholds the
	// policy keeps the buffers between (73% and 88% of capacity).
	LowWater  int
	HighWater int
	// CriticalMinor and CriticalMajor are the §4.1 emergency thresholds
	// on the software buffer occupancy (30% and 15% of its capacity):
	// crossing them is what migrations, startup and seeks do.
	CriticalMinor int
	CriticalMajor int
	// NormalEvery / UrgentEvery are the f_normal and f_urgent check
	// frequencies, in received frames (8 and 4 in the prototype:
	// "flow control messages are sent every 8 received frames, and
	// otherwise the frequency is doubled").
	NormalEvery int
	UrgentEvery int
	// EmergencyMinorQ / EmergencyMajorQ are the base emergency quantities
	// in extra frames/s (6 and 12).
	EmergencyMinorQ int
	EmergencyMajorQ int
	// EmergencyDecay is the per-second decay factor f ∈ (0,1) (0.8).
	EmergencyDecay float64
	// DefaultRate is the transmission rate used at session start,
	// frames/s (the movie's nominal rate).
	DefaultRate int
	// MinRate / MaxRate clamp the granted base rate. The paper frames
	// normal transmission as a CBR reservation at the nominal rate with
	// a separate emergency VBR allowance (§4.1), so the base rate only
	// drifts a little around nominal (±10% by default) — enough to track
	// clock skew between sender and decoder; refilling after an
	// irregularity is the emergency mechanism's job, not the base rate's.
	MinRate int
	MaxRate int
}

// DefaultParams returns the paper's prototype parameter set for a
// 1.4 Mbps / 30 fps stream with 2.4 s of client buffering. See DESIGN.md
// §2 for the derivation of each value.
func DefaultParams() Params {
	const (
		capacity = 74 // 37 software frames + ~37 frames of 240KB decoder
		software = 37
	)
	return Params{
		CombinedCapacity: capacity,
		SoftwareCapacity: software,
		LowWater:         capacity * 73 / 100, // 54 frames ≈ 1.7s
		HighWater:        capacity * 88 / 100, // 65 frames
		CriticalMinor:    software * 30 / 100, // 11 software frames
		CriticalMajor:    software * 15 / 100, // 5 software frames
		NormalEvery:      8,
		UrgentEvery:      4,
		EmergencyMinorQ:  6,
		EmergencyMajorQ:  12,
		EmergencyDecay:   0.8,
		DefaultRate:      30,
		MinRate:          27, // nominal −10%
		MaxRate:          33, // nominal +10%
	}
}

// Validate reports the first inconsistency in the parameter set.
func (p Params) Validate() error {
	switch {
	case p.CombinedCapacity <= 0:
		return fmt.Errorf("flowctl: CombinedCapacity %d", p.CombinedCapacity)
	case p.SoftwareCapacity <= 0 || p.SoftwareCapacity > p.CombinedCapacity:
		return fmt.Errorf("flowctl: SoftwareCapacity %d of %d", p.SoftwareCapacity, p.CombinedCapacity)
	case !(0 < p.CriticalMajor && p.CriticalMajor <= p.CriticalMinor && p.CriticalMinor <= p.SoftwareCapacity):
		return fmt.Errorf("flowctl: critical thresholds %d/%d", p.CriticalMajor, p.CriticalMinor)
	case !(p.LowWater < p.HighWater && p.HighWater <= p.CombinedCapacity && p.LowWater > 0):
		return fmt.Errorf("flowctl: water marks %d/%d of %d", p.LowWater, p.HighWater, p.CombinedCapacity)
	case p.NormalEvery <= 0 || p.UrgentEvery <= 0 || p.UrgentEvery > p.NormalEvery:
		return fmt.Errorf("flowctl: check frequencies %d/%d", p.NormalEvery, p.UrgentEvery)
	case p.EmergencyDecay <= 0 || p.EmergencyDecay >= 1:
		return fmt.Errorf("flowctl: decay %v outside (0,1)", p.EmergencyDecay)
	case p.EmergencyMinorQ < 0 || p.EmergencyMajorQ < p.EmergencyMinorQ:
		return fmt.Errorf("flowctl: emergency quantities %d/%d", p.EmergencyMinorQ, p.EmergencyMajorQ)
	case p.MinRate <= 0 || p.MinRate > p.DefaultRate || p.MaxRate < p.DefaultRate:
		return fmt.Errorf("flowctl: rates default=%d min=%d max=%d", p.DefaultRate, p.MinRate, p.MaxRate)
	}
	return nil
}

// EmergencyTotal returns the total number of extra frames a decaying
// emergency burst transmits: the sum of the iterated truncated sequence
// q, ⌊q·f⌋, ⌊⌊q·f⌋·f⌋, … — 43 frames for q=12, f=0.8 and 15 for q=6
// (§4.1: "the resulting sequence sum is 43 frames" / "sums up to 15").
func EmergencyTotal(q int, f float64) int {
	total := 0
	for q > 0 {
		total += q
		q = int(float64(q) * f)
	}
	return total
}
