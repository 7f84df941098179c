package server

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
)

// fetchNext replicates the missing movies one at a time, trying each peer
// of s.fetchOrder in turn — on a ring, the movie's other owners first — and
// starts serving each movie the moment it lands (joining its movie group,
// with the contacts Start would give it, triggers the usual knowledge
// exchange and redistribution, so the fresh server immediately absorbs
// load — §7's "new server brought up without any special preparations").
func (s *Server) fetchNext(missing []string, contacts []gcs.ProcessID, peerIdx int) {
	s.mu.Lock()
	peers := s.fetchOrder
	if s.closed || len(missing) == 0 || len(peers) == 0 {
		s.fetchOrder = nil // the loop is over: server views stop reordering it
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	movieID := missing[0]
	if s.cfg.Catalog.Has(movieID) {
		s.later(func() { s.fetchNext(missing[1:], contacts, 0) })
		return
	}
	peers = s.ownersFirst(movieID, peers)
	peer := peers[peerIdx%len(peers)]
	err := s.fetcher.Fetch(movieID, peer, func(m *mpeg.Movie, err error) {
		if err != nil {
			// This peer is down or lacks the movie: rotate to the next
			// one after a beat. The loop never gives up — a peer holding
			// the movie may come up later.
			clock.Schedule(s.cfg.Clock, time.Second, func() {
				s.fetchNext(missing, contacts, peerIdx+1)
			})
			return
		}
		s.cfg.Catalog.Add(m)
		// Joining the movie group may race a concurrent shutdown; a
		// failure here only means the movie sits in the catalog unserved.
		_ = s.serveMovie(movieID, s.movieContacts(movieID, contacts))
		s.later(func() { s.fetchNext(missing[1:], contacts, 0) })
	})
	if err != nil {
		// A transfer is already in flight (should not happen — fetches
		// are sequential); retry shortly.
		clock.Schedule(s.cfg.Clock, time.Second, func() {
			s.fetchNext(missing, contacts, peerIdx)
		})
	}
}

// ownersFirst reorders peers so that, on a ring, movieID's other owners —
// the peers that hold it — come first, each group in its order in peers.
// Any other peer answers not-found, and each wrong guess costs a second.
// Without a ring, or off the movie's arc, peers is returned as is.
func (s *Server) ownersFirst(movieID string, peers []gcs.ProcessID) []gcs.ProcessID {
	owners := s.movieContacts(movieID, nil)
	if len(owners) == 0 {
		return peers
	}
	out := make([]gcs.ProcessID, 0, len(peers))
	for _, owner := range []bool{true, false} {
		for _, p := range peers {
			if slices.Contains(owners, p) == owner {
				out = append(out, p)
			}
		}
	}
	return out
}

// onServerView puts the peers of a server-group view at the head of the
// fetch order while the fetch loop runs: they are known to be live, where a
// dead peer costs a whole transfer timeout (20 chunk retries). A transfer
// to a peer the view lacks moves to them at once.
func (s *Server) onServerView(v gcs.View) {
	live := slices.DeleteFunc(slices.Clone(v.Members), func(m gcs.ProcessID) bool { return m == s.proc.ID() })
	if len(live) == 0 {
		return
	}
	s.mu.Lock()
	if s.fetchOrder == nil {
		s.mu.Unlock()
		return
	}
	rest := slices.DeleteFunc(slices.Clone(s.fetchOrder), func(p gcs.ProcessID) bool { return slices.Contains(live, p) })
	s.fetchOrder = append(live, rest...)
	s.mu.Unlock()
	s.fetcher.Redirect(live)
}
