package flowctl

import (
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// §4.2 / §6: 2.4s of buffering, low water 73%, high water 88%.
	if p.CombinedCapacity != 74 {
		t.Fatalf("capacity = %d, want 74 frames (2.4s at 30fps)", p.CombinedCapacity)
	}
	if p.LowWater != 54 {
		t.Fatalf("low water = %d, want 54 (73%%)", p.LowWater)
	}
	if p.HighWater != 65 {
		t.Fatalf("high water = %d, want 65 (88%%)", p.HighWater)
	}
	if p.SoftwareCapacity != 37 {
		t.Fatalf("software capacity = %d, want 37 frames", p.SoftwareCapacity)
	}
	if p.CriticalMinor != 11 || p.CriticalMajor != 5 {
		t.Fatalf("critical thresholds = %d/%d, want 11/5 (30%%/15%% of the software buffer)", p.CriticalMinor, p.CriticalMajor)
	}
	if p.NormalEvery != 8 || p.UrgentEvery != 4 {
		t.Fatalf("frequencies = %d/%d, want 8/4", p.NormalEvery, p.UrgentEvery)
	}
}

func TestEmergencyTotalMatchesPaper(t *testing.T) {
	// §4.1: q=12, f=0.8 → "the resulting sequence sum is 43 frames".
	if got := EmergencyTotal(12, 0.8); got != 43 {
		t.Fatalf("EmergencyTotal(12, 0.8) = %d, want 43", got)
	}
	// §4.1 reports 15 for q=6; iterated truncation yields 16 — within one
	// frame of the paper's arithmetic (see EXPERIMENTS.md).
	if got := EmergencyTotal(6, 0.8); got < 15 || got > 16 {
		t.Fatalf("EmergencyTotal(6, 0.8) = %d, want 15..16", got)
	}
	if got := EmergencyTotal(0, 0.8); got != 0 {
		t.Fatalf("EmergencyTotal(0) = %d", got)
	}
}

func TestEmergencyBandwidthBound(t *testing.T) {
	// The emergency boost must stay ≤ 40% of the mean bandwidth (§4.1):
	// q=12 extra frames/s on a 30 fps stream.
	p := DefaultParams()
	if frac := float64(p.EmergencyMajorQ) / float64(p.DefaultRate); frac > 0.40 {
		t.Fatalf("emergency boost is %.0f%% of mean bandwidth, paper bound is 40%%", frac*100)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.CombinedCapacity = 0 },
		func(p *Params) { p.CriticalMajor = 0 },
		func(p *Params) { p.CriticalMajor = p.CriticalMinor + 1 },
		func(p *Params) { p.SoftwareCapacity = 0 },
		func(p *Params) { p.SoftwareCapacity = p.CombinedCapacity + 1 },
		func(p *Params) { p.CriticalMinor = p.SoftwareCapacity + 1 },
		func(p *Params) { p.LowWater = p.HighWater },
		func(p *Params) { p.HighWater = p.CombinedCapacity + 1 },
		func(p *Params) { p.UrgentEvery = p.NormalEvery + 1 },
		func(p *Params) { p.EmergencyDecay = 1.0 },
		func(p *Params) { p.EmergencyDecay = 0 },
		func(p *Params) { p.EmergencyMajorQ = p.EmergencyMinorQ - 1 },
		func(p *Params) { p.MaxRate = p.DefaultRate - 1 },
		func(p *Params) { p.MinRate = p.DefaultRate + 1 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d passed validation: %+v", i, p)
		}
	}
}

// policyDrive feeds combined occupancies (software modeled as half the
// combined value, the steady-state split) and collects emitted requests.
func policyDrive(f *Policy, occs []int) []wire.FlowKind {
	var out []wire.FlowKind
	for _, occ := range occs {
		if k, ok := f.OnFrame(occ, occ/2); ok {
			out = append(out, k)
		}
	}
	return out
}

func TestPolicyBelowLowWaterIncreases(t *testing.T) {
	f := NewPolicy(DefaultParams())
	occs := make([]int, 16)
	for i := range occs {
		occs[i] = 40 // below low water (54), above critical (22)
	}
	got := policyDrive(f, occs)
	// Urgent cadence: every 4 frames → 4 requests in 16 frames.
	if len(got) != 4 {
		t.Fatalf("emitted %d requests, want 4 (urgent cadence)", len(got))
	}
	for _, k := range got {
		if k != wire.FlowIncrease {
			t.Fatalf("request = %v, want increase", k)
		}
	}
}

func TestPolicyAboveHighWaterDecreases(t *testing.T) {
	f := NewPolicy(DefaultParams())
	occs := make([]int, 8)
	for i := range occs {
		occs[i] = 70 // above high water (65)
	}
	got := policyDrive(f, occs)
	if len(got) != 2 {
		t.Fatalf("emitted %d requests, want 2", len(got))
	}
	for _, k := range got {
		if k != wire.FlowDecrease {
			t.Fatalf("request = %v, want decrease", k)
		}
	}
}

func TestPolicyBetweenWaterMarksFollowsTrend(t *testing.T) {
	f := NewPolicy(DefaultParams())
	// First 8 frames at 60 set the baseline (no emission on the first
	// cadence hit because there is no previous occupancy yet).
	occs := make([]int, 8)
	for i := range occs {
		occs[i] = 60
	}
	if got := policyDrive(f, occs); len(got) != 0 {
		t.Fatalf("baseline pass emitted %v", got)
	}
	// Falling occupancy → increase.
	for i := range occs {
		occs[i] = 58
	}
	got := policyDrive(f, occs)
	if len(got) != 1 || got[0] != wire.FlowIncrease {
		t.Fatalf("falling trend emitted %v, want [increase]", got)
	}
	// Rising occupancy → decrease.
	for i := range occs {
		occs[i] = 63
	}
	got = policyDrive(f, occs)
	if len(got) != 1 || got[0] != wire.FlowDecrease {
		t.Fatalf("rising trend emitted %v, want [decrease]", got)
	}
	// Unchanged occupancy → silence ("no request is emitted").
	got = policyDrive(f, occs)
	if len(got) != 0 {
		t.Fatalf("flat trend emitted %v, want none", got)
	}
}

func TestPolicyEmergencyEdgeTriggered(t *testing.T) {
	f := NewPolicy(DefaultParams())
	// Crossing below the major threshold fires immediately, not on the
	// cadence.
	if k, ok := f.OnFrame(5, 2); !ok || k != wire.FlowEmergencyMajor {
		t.Fatalf("first frame below major threshold: %v, %v", k, ok)
	}
	// Staying below must not fire another emergency while armed-off; at
	// the urgent cadence it emits increases instead.
	var kinds []wire.FlowKind
	for i := 0; i < 8; i++ {
		if k, ok := f.OnFrame(5, 2); ok {
			kinds = append(kinds, k)
		}
	}
	for _, k := range kinds {
		if k == wire.FlowEmergencyMajor || k == wire.FlowEmergencyMinor {
			t.Fatalf("repeated emergency while still in the same dip: %v", kinds)
		}
	}
	// Recover above the minor threshold, then dip again → a new emergency.
	for i := 0; i < 12; i++ {
		f.OnFrame(60, 30)
	}
	if k, ok := f.OnFrame(5, 2); !ok || k != wire.FlowEmergencyMajor {
		t.Fatalf("re-armed emergency: %v, %v", k, ok)
	}
}

func TestPolicyMinorVsMajorEmergency(t *testing.T) {
	f := NewPolicy(DefaultParams())
	// Software occupancy 7 is below 30% (11) but above 15% (5): minor.
	if k, ok := f.OnFrame(15, 7); !ok || k != wire.FlowEmergencyMinor {
		t.Fatalf("minor emergency: %v, %v", k, ok)
	}
}

func TestRateControllerBasics(t *testing.T) {
	r := NewRateController(DefaultParams())
	if r.Rate() != 30 {
		t.Fatalf("initial rate = %d, want 30", r.Rate())
	}
	r.OnRequest(wire.FlowIncrease, 0)
	if r.Rate() != 31 {
		t.Fatalf("after increase = %d, want 31", r.Rate())
	}
	r.OnRequest(wire.FlowDecrease, 0)
	r.OnRequest(wire.FlowDecrease, 0)
	if r.Rate() != 29 {
		t.Fatalf("after decreases = %d, want 29", r.Rate())
	}
}

func TestRateControllerClamps(t *testing.T) {
	p := DefaultParams()
	p.MinRate, p.MaxRate = 28, 32
	r := NewRateController(p)
	for i := 0; i < 10; i++ {
		r.OnRequest(wire.FlowIncrease, 0)
	}
	if r.Rate() != 32 {
		t.Fatalf("rate exceeded max: %d", r.Rate())
	}
	for i := 0; i < 10; i++ {
		r.OnRequest(wire.FlowDecrease, 0)
	}
	if r.Rate() != 28 {
		t.Fatalf("rate fell below min: %d", r.Rate())
	}
}

func TestRateControllerEmergencySequence(t *testing.T) {
	r := NewRateController(DefaultParams())
	r.OnRequest(wire.FlowEmergencyMajor, 0)
	// §4.1: the boost decays by iterated truncation 12, 9, 7, 5, 4, 3,
	// 2, 1, 0 — totalling 43 extra frames.
	want := []int{42, 39, 37, 35, 34, 33, 32, 31, 30, 30}
	var total int
	for i, w := range want {
		if r.Rate() != w {
			t.Fatalf("second %d: rate = %d, want %d", i, r.Rate(), w)
		}
		total += r.Rate() - 30
		r.DecayTick()
	}
	if total != EmergencyTotal(12, 0.8) {
		t.Fatalf("total extra frames = %d, want %d", total, EmergencyTotal(12, 0.8))
	}
}

func TestRateControllerIgnoresRequestsDuringEmergency(t *testing.T) {
	r := NewRateController(DefaultParams())
	r.OnRequest(wire.FlowEmergencyMinor, 0)
	if !r.EmergencyActive() {
		t.Fatal("emergency not active")
	}
	base := r.Base()
	r.OnRequest(wire.FlowIncrease, 0)
	r.OnRequest(wire.FlowDecrease, 0)
	if r.Base() != base {
		t.Fatal("ordinary requests were applied during an emergency (§4.1 violation)")
	}
	// A stronger emergency upgrades the quantity.
	r.OnRequest(wire.FlowEmergencyMajor, 0)
	if r.Rate() != base+12 {
		t.Fatalf("rate after upgrade = %d, want %d", r.Rate(), base+12)
	}
	// A weaker one arriving during a stronger one changes nothing.
	r.OnRequest(wire.FlowEmergencyMinor, 0)
	if r.Rate() != base+12 {
		t.Fatalf("weaker emergency downgraded the boost: %d", r.Rate())
	}
}

// TestRateControllerFullBufferEndsBurst pins the one departure from
// §4.1's lockout: during a burst a decrease reported at the high water mark
// ends it, one just below is ignored, an increase always is, and
// PaperLockout restores the unconditional lockout. The base rate is never
// moved by a request that arrives during a burst.
func TestRateControllerFullBufferEndsBurst(t *testing.T) {
	p := DefaultParams()
	burst := func(p Params) *RateController {
		r := NewRateController(p)
		r.OnRequest(wire.FlowEmergencyMajor, 0)
		return r
	}

	r := burst(p)
	r.OnRequest(wire.FlowDecrease, p.HighWater-1)
	if !r.EmergencyActive() {
		t.Fatal("a decrease below the high water mark ended the burst")
	}
	r.OnRequest(wire.FlowIncrease, p.CombinedCapacity)
	if !r.EmergencyActive() || r.Base() != p.DefaultRate {
		t.Fatalf("an increase during the burst was applied: active=%v base=%d", r.EmergencyActive(), r.Base())
	}
	r.OnRequest(wire.FlowDecrease, p.HighWater)
	if r.EmergencyActive() || r.Rate() != p.DefaultRate {
		t.Fatalf("a decrease at the high water mark left active=%v rate=%d, want the burst over at %d",
			r.EmergencyActive(), r.Rate(), p.DefaultRate)
	}

	p.PaperLockout = true
	r = burst(p)
	r.OnRequest(wire.FlowDecrease, p.CombinedCapacity)
	if !r.EmergencyActive() || r.Rate() != p.DefaultRate+p.EmergencyMajorQ {
		t.Fatalf("under PaperLockout a decrease at full occupancy left active=%v rate=%d",
			r.EmergencyActive(), r.Rate())
	}
}

func TestRateControllerSetBase(t *testing.T) {
	r := NewRateController(DefaultParams())
	r.SetBase(28)
	if r.Base() != 28 {
		t.Fatalf("SetBase: %d", r.Base())
	}
	r.SetBase(1000)
	if r.Base() != DefaultParams().MaxRate {
		t.Fatalf("SetBase did not clamp above: %d", r.Base())
	}
	r.SetBase(1)
	if r.Base() != DefaultParams().MinRate {
		t.Fatalf("SetBase did not clamp below: %d", r.Base())
	}
}

// TestEmergencyDecayConvergesProperty: for any q and valid f, the decay
// reaches zero (the boost never persists forever) and the total is finite
// and at least q.
func TestEmergencyDecayConvergesProperty(t *testing.T) {
	prop := func(q uint8, fRaw uint8) bool {
		f := 0.1 + 0.8*float64(fRaw)/255.0 // f ∈ [0.1, 0.9]
		total := EmergencyTotal(int(q), f)
		if q == 0 {
			return total == 0
		}
		return total >= int(q) && total <= int(q)*20
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyNeverSilentWhenOutsideWaterMarks: whatever the occupancy
// trajectory, a policy fed frames while outside the water marks emits a
// request within UrgentEvery frames — the control loop cannot stall.
func TestPolicyNeverSilentWhenOutsideWaterMarks(t *testing.T) {
	prop := func(seed int64) bool {
		p := DefaultParams()
		f := NewPolicy(p)
		occ := int(seed % int64(p.LowWater-1))
		if occ < 0 {
			occ = -occ
		}
		occ++ // occ ∈ [1, LowWater-1]: strictly below the low water mark
		silent := 0
		for i := 0; i < 64; i++ {
			if _, ok := f.OnFrame(occ, occ/2); ok {
				silent = 0
			} else {
				silent++
			}
			if silent > p.UrgentEvery {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolicyOnFrame(b *testing.B) {
	f := NewPolicy(DefaultParams())
	for i := 0; i < b.N; i++ {
		f.OnFrame(50+i%20, 20)
	}
}

// TestClosedLoopConvergence simulates the entire control loop in miniature
// — a virtual server paced by a RateController feeding a virtual buffer
// drained at 30fps, with the Policy in the feedback path — and requires
// the occupancy to converge between the water marks and stay there, the
// defining property of §4's design.
func TestClosedLoopConvergence(t *testing.T) {
	p := DefaultParams()
	pol := NewPolicy(p)
	rc := NewRateController(p)

	combined := 0
	displayedCredit := 0.0
	arrivalCredit := 0.0
	inBand := 0
	for tick := 0; tick < 60*100; tick++ { // 60 simulated seconds at 10ms
		if tick%100 == 0 {
			rc.DecayTick()
		}
		arrivalCredit += float64(rc.Rate()) / 100
		for arrivalCredit >= 1 {
			arrivalCredit--
			if combined < p.CombinedCapacity {
				combined++
			}
			sw := combined - 37 // software share once the decoder is full
			if sw < 0 {
				sw = combined
			}
			if k, ok := pol.OnFrame(combined, sw); ok {
				rc.OnRequest(k, combined)
			}
		}
		displayedCredit += 30.0 / 100
		for displayedCredit >= 1 {
			displayedCredit--
			if combined > 0 {
				combined--
			}
		}
		if tick > 30*100 { // after convergence time
			if combined >= p.LowWater && combined < p.HighWater {
				inBand++
			}
		}
	}
	frac := float64(inBand) / float64(30*100)
	if frac < 0.8 {
		t.Fatalf("occupancy in the water-mark band only %.0f%% of steady state", frac*100)
	}
}
