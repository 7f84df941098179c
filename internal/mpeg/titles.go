package mpeg

import (
	"slices"
	"sync"
)

// maxTitles bounds the titles a process holds beyond their users: a 90 s
// title with its packet tape and file form is ≈ 130 KB.
const maxTitles = 16

// titles is the process's table of the titles it has built, most recently
// used first. A title is immutable, so a cold-restarted server's fetched
// copy, or a table's regenerated feature, can be the Movie the process
// already holds — with the packet tape and file form built on it — without
// changing a byte anyone sends.
var titles struct {
	sync.Mutex
	held []*Movie
}

// title returns the held title match accepts, now the most recently used.
// Failing that it holds m, if not nil, letting the least recently used title
// go. One lock covers the check and the insert, so two goroutines that built
// one title leave one entry.
func title(match func(*Movie) bool, m *Movie) *Movie {
	titles.Lock()
	defer titles.Unlock()
	if i := slices.IndexFunc(titles.held, match); i >= 0 {
		m = titles.held[i]
		copy(titles.held[1:i+1], titles.held[:i])
	} else if m != nil {
		titles.held = append(titles.held[:min(len(titles.held), maxTitles-1)], nil)
		copy(titles.held[1:], titles.held)
	} else {
		return nil
	}
	titles.held[0] = m
	return m
}

// intern returns the held title equal to m, or holds m.
func intern(m *Movie) *Movie {
	return title(func(h *Movie) bool {
		return h == m || h.sameHeader(m.id, m.fps, len(m.frames)) && slices.Equal(h.frames, m.frames)
	}, m)
}

// sameHeader reports whether m is the title a file header names.
func (m *Movie) sameHeader(id string, fps, frames int) bool {
	return m.id == id && m.fps == fps && len(m.frames) == frames
}
