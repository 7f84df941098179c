package gcs

import (
	"slices"
	"time"
)

// detector is the process-level unreliable failure detector: every
// heartbeatInterval the process pings each peer of interest; a peer silent
// for suspectTimeout becomes suspected. Any inbound datagram counts as life,
// so heartbeats only add traffic on otherwise idle links. The paper requires
// exactly this: "a (possibly unreliable) failure detection mechanism".
//
// The maps are made by start, at the process's first Join; before that
// nothing is tracked or suspected, and reads of the nil maps say so.
//
// All methods require the owning Process's lock.
type detector struct {
	p         *Process
	lastHeard map[ProcessID]time.Time
	suspected map[ProcessID]bool

	// peersLocked scratch: the watch set is rebuilt every heartbeat tick,
	// but its contents only change on membership events, so the rebuild
	// runs in reusable storage and the returned snapshot is reallocated
	// only when the set actually differs.
	scratchSet map[ProcessID]bool
	scratch    []ProcessID
	cache      []ProcessID // immutable once returned; callers may hold it unlocked
}

func (d *detector) start() {
	d.lastHeard = make(map[ProcessID]time.Time)
	d.suspected = make(map[ProcessID]bool)
	d.scratchSet = make(map[ProcessID]bool)
}

// peersLocked returns every process this one should ping and watch: the
// co-members of all views plus pending view-change candidates and foreign
// (joining/merging) processes.
func (d *detector) peersLocked() []ProcessID {
	set := d.scratchSet
	clear(set)
	for _, m := range d.p.members {
		if !m.active {
			continue
		}
		for _, id := range m.view.Members {
			set[id] = true
		}
		for id := range m.foreign {
			set[id] = true
		}
		if m.prop != nil {
			for _, id := range m.prop.candidates {
				set[id] = true
			}
		}
		if m.status == statusFlushing {
			for _, id := range m.flushOldView.Members {
				set[id] = true
			}
			set[m.curPID.Coord] = true
		}
	}
	delete(set, d.p.id)

	now := d.p.cfg.Clock.Now()
	peers := d.scratch[:0]
	for id := range set {
		peers = append(peers, id)
		if _, ok := d.lastHeard[id]; !ok {
			// Grace period: a peer becomes suspectable only after it has
			// had one full timeout to say anything.
			d.lastHeard[id] = now
		}
	}
	// Forget peers no longer of interest so state does not grow forever.
	for id := range d.lastHeard {
		if !set[id] {
			delete(d.lastHeard, id)
			delete(d.suspected, id)
		}
	}
	slices.Sort(peers)
	d.scratch = peers
	// The caller sends heartbeats after dropping the process lock, so hand
	// out an immutable snapshot rather than the scratch. The set is stable
	// between membership events; reallocate only when it changed.
	if !idsEqual(peers, d.cache) {
		d.cache = append([]ProcessID(nil), peers...)
	}
	return d.cache
}

// idsEqual reports whether a and b hold the same IDs in the same order.
func idsEqual(a, b []ProcessID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// heardLocked records life from a peer, clearing any suspicion.
func (d *detector) heardLocked(from ProcessID) {
	if _, tracked := d.lastHeard[from]; tracked {
		d.lastHeard[from] = d.p.cfg.Clock.Now()
	}
	delete(d.suspected, from)
}

// checkLocked scans for peers that newly exceeded the suspect timeout and
// returns them.
func (d *detector) checkLocked() []ProcessID {
	now := d.p.cfg.Clock.Now()
	var newly []ProcessID
	for id, t := range d.lastHeard {
		if d.suspected[id] {
			continue
		}
		if now.Sub(t) >= suspectTimeout {
			d.suspected[id] = true
			newly = append(newly, id)
		}
	}
	return sortedIDs(newly)
}

// isSuspectedLocked reports whether id is currently suspected.
func (d *detector) isSuspectedLocked(id ProcessID) bool { return d.suspected[id] }

// suspectLocked marks id suspected immediately — used when the view-change
// protocol itself establishes unresponsiveness (a candidate that never
// answers despite retransmissions). Hearing from the peer clears it again.
func (d *detector) suspectLocked(id ProcessID) {
	if id == d.p.id {
		return
	}
	d.suspected[id] = true
}
