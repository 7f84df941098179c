package flowctl

import "repro/internal/wire"

// RateController is the server-side per-client transmission rate state
// (§4, §4.1): a base rate adjusted ±1 frame/s per client request, plus a
// decaying emergency quantity. While the emergency quantity is positive,
// ordinary flow-control requests are ignored.
//
// RateController is not safe for concurrent use; the server serializes
// access per client.
type RateController struct {
	p         Params
	base      int // granted steady-state rate, frames/s
	emergency int // extra frames/s, decaying
}

// NewRateController starts at the parameter set's default rate.
func NewRateController(p Params) *RateController {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &RateController{p: p, base: p.DefaultRate}
}

// Rate returns the current transmission rate in frames/s: the base rate
// plus the live emergency quantity.
func (r *RateController) Rate() int { return r.base + r.emergency }

// Base returns the granted steady-state rate without the emergency boost.
func (r *RateController) Base() int { return r.base }

// EmergencyActive reports whether an emergency burst is still decaying.
func (r *RateController) EmergencyActive() bool { return r.emergency > 0 }

// OnRequest applies one client flow-control request.
func (r *RateController) OnRequest(k wire.FlowKind) {
	switch k {
	case wire.FlowEmergencyMajor:
		r.boost(r.p.EmergencyMajorQ)
	case wire.FlowEmergencyMinor:
		r.boost(r.p.EmergencyMinorQ)
	case wire.FlowIncrease:
		if r.emergency > 0 {
			return // §4.1: ignore ordinary requests during an emergency
		}
		if r.base < r.p.MaxRate {
			r.base++
		}
	case wire.FlowDecrease:
		if r.emergency > 0 {
			return
		}
		if r.base > r.p.MinRate {
			r.base--
		}
	}
}

// boost raises the emergency quantity to at least q. A stronger emergency
// arriving during a weaker one upgrades it; a weaker one changes nothing.
func (r *RateController) boost(q int) {
	if q > r.emergency {
		r.emergency = q
	}
}

// DecayTick applies one second of decay to the emergency quantity:
// qₙ₊₁ = ⌊qₙ·f⌋, the iterated truncation whose sum is the paper's 43
// (q=12) and ~15 (q=6) extra frames.
func (r *RateController) DecayTick() {
	if r.emergency > 0 {
		r.emergency = int(float64(r.emergency) * r.p.EmergencyDecay)
	}
}

// SetBase overrides the granted rate — used when a server takes over a
// migrated client and resumes at "the offset and transmission rate that
// were last heard from the previous server" (§5.2).
func (r *RateController) SetBase(rate int) {
	if rate < r.p.MinRate {
		rate = r.p.MinRate
	}
	if rate > r.p.MaxRate {
		rate = r.p.MaxRate
	}
	r.base = rate
}
