package server

import (
	"time"

	"repro/internal/clock"
)

// Striped egress is how the leased tier is paced: leased sessions that
// share a movie and a send period attach to one coalesced ticker — the
// stripe — instead of each arming a dedicated pacing timer. A beat is one
// event that walks a flat entry slice in attach order and hands its frames
// to the network as one batch. How many sessions a beat carries is set by
// what they share, not by how many watch the title: at the headline
// two-tier scale a server streams one title to ~200 viewers, but flow
// control gives each session its own period and there are 16 phase slots,
// so the 50×10k row measured 693,856 beats carrying 3,000,000 frames — 4.3
// sessions per beat (2.5 on 10×1k). Every per-session decision (thinning,
// degrade, shaper tokens, end-of-movie) still runs per session inside the
// walk, via the same paceTickLocked body the dedicated timer uses.
//
// A stripe outlives its sessions. The beat that finds it empty stops and
// parks it for its key, and the next attach there restarts the beat with the
// stripe's bound tick and entry storage: over the scale table's 15,000
// viewers, 19,206 of 28,378 stripe starts find a parked stripe, and only
// 9,172 stripes are made (DESIGN §8 has the rent). A server parks at most
// maxParkedStripes per title and drops them at Stop.
//
// That factor of four pays the rent (audit for PR 24, seed 1): with leased
// sessions on dedicated timers instead, the 50×10k table allocates less —
// allocs_k 1,469.5 → 1,234.9, same digest — but its cpu_s goes from
// 22.1–29.0 to 37.7–39.1, so the stripe stays.
//
// Determinism: stripes are created, attached to and walked in simulation
// event order; their maps (Server.stripes, parkedStripes) are iterated only
// at shutdown, which stops beats and arms nothing, so a run is
// byte-identical for a fixed seed.

// stripeKey identifies a stripe: one movie at one send period and one
// frame-phase slot. Rate changes (flow control, emergency boost) migrate a
// session to the stripe matching its new period at the next tick.
type stripeKey struct {
	movie  string
	period time.Duration
	phase  int32
}

// stripePhaseSlots divides each send period into phase buckets. Sessions
// attach to the bucket holding their own pacing phase, so a session's beats
// land within period/stripePhaseSlots of where its dedicated timer would
// have fired, and each tick bursts only a bucket's worth of frames into the
// shared egress queue instead of every viewer of the movie at once. One
// movie at one rate still collapses from one timer per session to at most
// this many tickers.
const stripePhaseSlots = 16

// maxParkedStripes caps the idle stripes a server keeps per title: every
// phase slot of 19 send periods, the rates 27–45 that flow control and the
// emergency boost move a 30 fps stream between.
const maxParkedStripes = 19 * stripePhaseSlots

type stripe struct {
	srv     *Server
	key     stripeKey
	task    clock.Periodic
	tickFn  func()     // st.tick, bound once: a parked stripe restarts with it
	entries []*session // attach order; nil where a session detached mid-beat
	parked  bool       // idle: no session, beat stopped, kept for its key
}

// attachStripeLocked puts sess on the stripe for its movie and current send
// period, creating the stripe (and its ticker) on first use and restarting a
// parked one. Attaching to the stripe the session is already on is a no-op,
// so the scheduling path may call this on every tick-like event. Caller
// holds s.mu.
func (s *Server) attachStripeLocked(sess *session) {
	period := sess.sendPeriodLocked()
	// The session's pacing phase is where "now + period" falls within the
	// period cycle, i.e. now's own phase. A stripe's ticker is created at
	// the first attach, so its beats carry that member's phase; later
	// attachers land in the same slot only if their phase is within one
	// slot width, bounding how far any beat sits from the dedicated-timer
	// schedule it replaces.
	phase := int32(s.cfg.Clock.Now().UnixNano() % int64(period) * stripePhaseSlots / int64(period))
	key := stripeKey{movie: sess.movie.ID(), period: period, phase: phase}
	if st := sess.stripe; st != nil {
		if st.key == key {
			return
		}
		st.entries[sess.stripePos] = nil
		sess.stripe = nil
	}
	st := s.stripes[key]
	switch {
	case st == nil:
		st = &stripe{srv: s, key: key}
		st.tickFn = st.tick
		if s.stripes == nil {
			s.stripes, s.parkedStripes = make(map[stripeKey]*stripe), make(map[string]int)
		}
		s.stripes[key] = st
		st.task.Start(s.cfg.Clock, key.period, key.period, st.tickFn)
	case st.parked:
		st.parked = false
		s.parkedStripes[key.movie]--
		st.task.Start(s.cfg.Clock, key.period, key.period, st.tickFn)
	}
	st.entries = append(st.entries, sess)
	sess.stripePos = len(st.entries) - 1
	sess.stripe = st
}

// tick is one stripe beat: walk the attached sessions in attach order,
// advance each by one frame, compact detached entries in place, and flush
// the beat's frames in a single batched network call — still inside this
// same clock event and lock hold, so RNG draws and egress arithmetic happen
// in walk order. A session whose shaper draw failed last beat skips this
// one (shedSkip), reproducing the dedicated timer's 2×-period retry; one
// that finished its movie or changed rate leaves the stripe. A beat that
// finds no session left stops and parks the stripe for its key, or retires
// it when its title already has maxParkedStripes parked.
func (st *stripe) tick() {
	s := st.srv
	s.mu.Lock()
	entries := st.entries
	k := 0
	for i := range entries {
		sess := entries[i]
		if sess == nil || sess.stripe != st || sess.closed {
			continue
		}
		if !sess.rec.Paused {
			if sess.shedSkip {
				sess.shedSkip = false
			} else {
				outcome, pkt := sess.paceTickLocked()
				sess.shedSkip = outcome == txShed
				if pkt != nil {
					s.txDsts = append(s.txDsts, sess.dst)
					s.txPkts = append(s.txPkts, pkt)
				}
			}
		}
		if sess.atEnd {
			sess.stripe = nil
			continue
		}
		if sess.sendPeriodLocked() != st.key.period {
			sess.stripe = nil
			s.attachStripeLocked(sess)
			continue
		}
		sess.stripePos = k
		entries[k] = sess
		k++
	}
	clear(entries[k:])
	st.entries = entries[:k]
	if len(s.txDsts) > 0 {
		_ = s.vid.SendPreframedBatch(s.txDsts, s.txPkts)
		s.txDsts = s.txDsts[:0]
		s.txPkts = s.txPkts[:0]
	}
	if k == 0 && !s.closed {
		st.task.Stop()
		if st.parked = s.parkedStripes[st.key.movie] < maxParkedStripes; st.parked {
			s.parkedStripes[st.key.movie]++
		} else {
			delete(s.stripes, st.key)
		}
	}
	s.mu.Unlock()
}
