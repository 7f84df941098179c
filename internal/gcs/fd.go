package gcs

import (
	"slices"
	"strings"
	"time"
)

// detector is the process-level unreliable failure detector: every
// heartbeatInterval the process pings each peer of interest; a peer silent
// for suspectTimeout becomes suspected. Any inbound datagram counts as life,
// so heartbeats only add traffic on otherwise idle links. The paper requires
// exactly this: "a (possibly unreliable) failure detection mechanism".
//
// Everything it knows is one table sorted by peer ID. Before the first Join
// the table is empty: nothing is tracked or suspected.
//
// All methods require the owning Process's lock.
type detector struct {
	p     *Process
	peers []peer // sorted by id

	// Reused storage: the merge writes into spare and swaps it with peers;
	// watch is the watch list under construction; newly holds checkLocked's
	// result.
	spare []peer
	watch []ProcessID
	newly []ProcessID
}

// peer is one process the detector knows: either watched (a peer of
// interest, pinged every heartbeat and suspectable once silent for
// suspectTimeout since heard) or suspected before it was ever watched, by
// suspectLocked, and kept until something is heard from it.
type peer struct {
	id        ProcessID
	heard     time.Time
	suspected bool
	watched   bool
}

// lookup returns id's position in the table, or where it would go.
func (d *detector) lookup(id ProcessID) (int, bool) {
	return slices.BinarySearchFunc(d.peers, id, func(e peer, id ProcessID) int { return strings.Compare(string(e.id), string(id)) })
}

// watchLocked brings the table up to date with the processes this one
// should ping and watch: the co-members of all views plus pending
// view-change candidates and foreign (joining/merging) processes.
func (d *detector) watchLocked() {
	watch := d.watch[:0]
	for _, m := range d.p.members {
		if !m.active {
			continue
		}
		watch = append(watch, m.view.Members...)
		for id := range m.foreign {
			watch = append(watch, id)
		}
		if m.prop != nil {
			watch = append(watch, m.prop.candidates...)
		}
		if m.status == statusFlushing {
			watch = append(watch, m.flushOldView.Members...)
			watch = append(watch, m.curPID.Coord)
		}
	}
	slices.Sort(watch)
	watch = slices.Compact(watch)
	if i, ok := slices.BinarySearch(watch, d.p.id); ok {
		watch = slices.Delete(watch, i, i+1)
	}
	d.watch = watch

	// Merge the two sorted lists. A newly watched peer gets a grace period:
	// it becomes suspectable only after one full timeout to say anything.
	// A peer no longer of interest is forgotten, so state does not grow
	// forever — unless it was suspected without ever being watched.
	now := d.p.cfg.Clock.Now()
	old, out := d.peers, d.spare[:0]
	for i, j := 0, 0; i < len(old) || j < len(watch); {
		switch {
		case j == len(watch) || i < len(old) && old[i].id < watch[j]:
			if !old[i].watched && old[i].suspected {
				out = append(out, old[i])
			}
			i++
		case i == len(old) || watch[j] < old[i].id:
			out = append(out, peer{id: watch[j], heard: now, watched: true})
			j++
		default:
			e := old[i]
			if !e.watched {
				e.heard, e.watched = now, true
			}
			out = append(out, e)
			i++
			j++
		}
	}
	d.peers, d.spare = out, old[:0]
}

// heardLocked records life from a peer, clearing any suspicion.
func (d *detector) heardLocked(from ProcessID) {
	if i, ok := d.lookup(from); ok {
		e := &d.peers[i]
		if e.watched {
			e.heard = d.p.cfg.Clock.Now()
		}
		e.suspected = false
	}
}

// checkLocked marks the watched peers that newly exceeded the suspect
// timeout and returns them in ID order. The result is valid until the next
// call.
func (d *detector) checkLocked() []ProcessID {
	now := d.p.cfg.Clock.Now()
	newly := d.newly[:0]
	for i := range d.peers {
		e := &d.peers[i]
		if e.watched && !e.suspected && now.Sub(e.heard) >= suspectTimeout {
			e.suspected = true
			newly = append(newly, e.id)
		}
	}
	d.newly = newly
	return newly
}

// isSuspectedLocked reports whether id is currently suspected.
func (d *detector) isSuspectedLocked(id ProcessID) bool {
	i, ok := d.lookup(id)
	return ok && d.peers[i].suspected
}

// suspectLocked marks id suspected immediately — used when the view-change
// protocol itself establishes unresponsiveness (a candidate that never
// answers despite retransmissions). Hearing from the peer clears it again.
func (d *detector) suspectLocked(id ProcessID) {
	if id == d.p.id {
		return
	}
	i, ok := d.lookup(id)
	if !ok {
		d.peers = slices.Insert(d.peers, i, peer{id: id})
	}
	d.peers[i].suspected = true
}
