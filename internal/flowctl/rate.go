package flowctl

import "repro/internal/wire"

// RateController is the server-side per-client transmission rate state
// (§4, §4.1): a base rate adjusted ±1 frame/s per client request, plus a
// decaying emergency quantity. While the emergency quantity is positive,
// ordinary flow-control requests are ignored — except that a decrease
// reported at or above the high water mark ends the burst (see OnRequest).
//
// RateController is not safe for concurrent use; the server serializes
// access per client.
type RateController struct {
	base      int // granted steady-state rate, frames/s
	emergency int // extra frames/s, decaying
	minRate   int // the base rate's band: nominal ±10%
	maxRate   int
	highWater int // combined occupancy at which a decrease ends a burst
	q         int // major emergency quantity; a minor one gets q/2
	lockout   bool
}

// NewRateController starts at the stream's nominal rate fps. The paper
// frames normal transmission as a CBR reservation at the nominal rate with
// a separate emergency VBR allowance (§4.1), so the base rate only drifts
// within ±10% of fps — enough to track clock skew between sender and
// decoder; refilling after an irregularity is the emergency mechanism's
// job, not the base rate's.
func NewRateController(p Params, fps int) *RateController {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &RateController{
		base:      fps,
		minRate:   fps - fps/10,
		maxRate:   fps + fps/10,
		highWater: MarksOf(p.Buffer).HighWater,
		q:         p.EmergencyQ,
		lockout:   p.PaperLockout,
	}
}

// Rate returns the current transmission rate in frames/s: the base rate
// plus the live emergency quantity.
func (r *RateController) Rate() int { return r.base + r.emergency }

// Base returns the granted steady-state rate without the emergency boost.
func (r *RateController) Base() int { return r.base }

// EmergencyActive reports whether an emergency burst is still decaying.
func (r *RateController) EmergencyActive() bool { return r.emergency > 0 }

// OnRequest applies one client flow-control request, sent at the given
// combined occupancy. During a burst a FlowDecrease at or above the high
// water mark ends the burst, since every further extra frame would be an
// overflow discard, unless Params.PaperLockout is set; the request itself
// is still ignored, so a burst's overshoot never lowers the base rate.
func (r *RateController) OnRequest(k wire.FlowKind, occupancy int) {
	switch k {
	case wire.FlowEmergencyMajor:
		r.boost(r.q)
	case wire.FlowEmergencyMinor:
		r.boost(r.q / 2)
	case wire.FlowIncrease:
		if r.emergency > 0 {
			return // §4.1: ignore ordinary requests during an emergency
		}
		if r.base < r.maxRate {
			r.base++
		}
	case wire.FlowDecrease:
		if r.emergency > 0 {
			if !r.lockout && occupancy >= r.highWater {
				r.emergency = 0
			}
			return
		}
		if r.base > r.minRate {
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
		r.emergency = int(float64(r.emergency) * EmergencyDecay)
	}
}

// SetBase overrides the granted rate — used when a server takes over a
// migrated client and resumes at "the offset and transmission rate that
// were last heard from the previous server" (§5.2).
func (r *RateController) SetBase(rate int) {
	if rate < r.minRate {
		rate = r.minRate
	}
	if rate > r.maxRate {
		rate = r.maxRate
	}
	r.base = rate
}
