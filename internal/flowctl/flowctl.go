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

import (
	"fmt"

	"repro/internal/buffer"
)

// Params are the three flow-control settings a deployment chooses: the
// client's buffer and the two §4.1 choices. Every threshold is derived from
// the buffer (MarksOf), so the two cannot disagree, and the rate band from
// the stream's nominal rate (NewRateController). The zero value is not
// valid; use DefaultParams (the paper's prototype values) and override as
// needed.
type Params struct {
	// Buffer sizes the client's two-level pipeline, and with it every
	// threshold.
	Buffer buffer.Config
	// EmergencyQ is the major emergency quantity q in extra frames/s (12):
	// what a dip below the major threshold is granted. A minor dip gets
	// q/2.
	EmergencyQ int
	// PaperLockout restores §4.1's unconditional lockout: no ordinary
	// request, not even a decrease from a full buffer, ends an emergency
	// burst. Off by default (see RateController.OnRequest); Abl E sets it
	// to reproduce the trade-off the paper measured.
	PaperLockout bool
}

// The settings the paper fixes and nothing varies.
const (
	// NormalEvery and UrgentEvery are the f_normal and f_urgent check
	// frequencies, in received frames: "flow control messages are sent
	// every 8 received frames, and otherwise the frequency is doubled".
	NormalEvery = 8
	UrgentEvery = 4
	// EmergencyDecay is the per-second decay factor f of the emergency
	// quantity.
	EmergencyDecay = 0.8
)

// DefaultParams returns the paper's prototype parameter set for a
// 1.4 Mbps / 30 fps stream with 2.4 s of client buffering. See DESIGN.md
// §2 for the derivation of each value.
func DefaultParams() Params {
	return Params{Buffer: buffer.DefaultConfig(), EmergencyQ: 12}
}

// marks are the thresholds, in frames, that a buffer implies.
type marks struct {
	// Capacity is the combined buffer space: the software frames plus the
	// decoder's bytes at the mean frame size (≈ 2.4 s of video by default).
	Capacity int
	// LowWater and HighWater are combined-occupancy thresholds the
	// policy keeps the buffers between (73% and 88% of capacity).
	LowWater  int
	HighWater int
	// CriticalMinor and CriticalMajor are the §4.1 emergency thresholds
	// on the software buffer occupancy (30% and 15% of its capacity).
	// The software buffer is the early-warning gauge: it drains first
	// during an irregularity period while the decoder buffer is still
	// being consumed.
	CriticalMinor int
	CriticalMajor int
}

// MarksOf derives the paper's threshold fractions (73% / 88% of the
// combined capacity, 30% / 15% of the software buffer) for a buffer. The
// floors keep a tiny buffer's marks ordered.
func MarksOf(buf buffer.Config) marks {
	const meanFrame = 5833 // 1.4 Mbps / 8 / 30 fps
	capacity := buf.SoftwareCapacity + buf.HardwareCapacityBytes/meanFrame
	m := marks{Capacity: capacity}
	m.LowWater = max(capacity*73/100, 4)
	m.HighWater = max(capacity*88/100, m.LowWater+1)
	m.CriticalMinor = max(buf.SoftwareCapacity*30/100, 2)
	m.CriticalMajor = min(max(buf.SoftwareCapacity*15/100, 1), m.CriticalMinor)
	return m
}

// Validate reports the first inconsistency in the parameter set.
func (p Params) Validate() error {
	switch m := MarksOf(p.Buffer); {
	case p.Buffer.SoftwareCapacity <= 0 || p.Buffer.HardwareCapacityBytes <= 0:
		return fmt.Errorf("flowctl: buffer %d frames + %d bytes", p.Buffer.SoftwareCapacity, p.Buffer.HardwareCapacityBytes)
	case m.HighWater > m.Capacity || m.CriticalMinor > p.Buffer.SoftwareCapacity:
		return fmt.Errorf("flowctl: buffer of %d frames (%d software) too small for its marks", m.Capacity, p.Buffer.SoftwareCapacity)
	case p.EmergencyQ < 0:
		return fmt.Errorf("flowctl: emergency quantity %d", p.EmergencyQ)
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
