package mpeg

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// forgetTitles empties the process's title table.
func forgetTitles() {
	titles.Lock()
	clear(titles.held)
	titles.held = titles.held[:0]
	titles.Unlock()
}

func isHeld(m *Movie) bool {
	titles.Lock()
	defer titles.Unlock()
	return slices.Contains(titles.held, m)
}

// coldTitle generates a title on an empty table, so what a test measures on
// it is a build nobody else holds.
func coldTitle(tb testing.TB, id string, cfg StreamConfig) *Movie {
	tb.Helper()
	forgetTitles()
	m := Generate(id, cfg)
	if m.pkts != nil || m.file != nil {
		tb.Fatalf("%s came back with its tables built: it was held already", id)
	}
	return m
}

// TestParseReturnsHeldTitle: a file equal to a held title, read and checked
// record by record, is that title — its packet tape and file form with it —
// and costs only its header's strings.
func TestParseReturnsHeldTitle(t *testing.T) {
	orig := Generate("held", StreamConfig{Seed: 9})
	data := bytes.Clone(orig.File())
	if m, err := Parse(data); err != nil || m != orig {
		t.Fatalf("Parse of a held title's file = %p, %v; want the held %p", m, err, orig)
	}
	if got := testing.AllocsPerRun(20, func() {
		if m, _ := Parse(data); m != orig {
			t.Fatal("Parse built a second copy of a held title")
		}
	}); got > 1 {
		t.Errorf("Parse of a held title: %v allocs, want ≤ 1 (the ID)", got)
	}
}

// TestParseNearMissIsItsOwnTitle: a file that differs from a held title in
// one frame's class, or in one frame's size, is a title of its own whose
// frames are the file's, held from then on beside the one it nearly matched.
func TestParseNearMissIsItsOwnTitle(t *testing.T) {
	orig := Generate("held", StreamConfig{Seed: 9})
	const k = 1234 // a B frame
	edits := map[string]func(*FrameInfo){
		"class": func(f *FrameInfo) { f.Class = wire.FrameP },
		"size":  func(f *FrameInfo) { f.Size++ },
	}
	for name, edit := range edits {
		frames := slices.Clone(orig.frames)
		edit(&frames[k])
		data := (&Movie{id: orig.id, fps: orig.fps, frames: frames}).File()
		m, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m == orig || !slices.Equal(m.frames, frames) {
			t.Fatalf("%s: Parse of a near miss gave the held title or frames other than the file's", name)
		}
		if again, _ := Parse(data); again != m {
			t.Errorf("%s: the near miss was not held", name)
		}
		if back, _ := Parse(orig.File()); back != orig {
			t.Errorf("%s: the held title was lost to its near miss", name)
		}
	}
}

// TestGenerateConcurrentOneTitle: 8 goroutines that miss on one title — half
// generating it, half parsing its file — get one Movie, and the table one
// entry; under -race it checks the table's lock.
func TestGenerateConcurrentOneTitle(t *testing.T) {
	cfg := StreamConfig{Duration: 20 * time.Second, Seed: 4}
	data := Generate("race", cfg).File()
	forgetTitles()
	got := make([]*Movie, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = Generate("race", cfg)
			} else if m, err := Parse(data); err == nil {
				got[g] = m
			}
		}()
	}
	wg.Wait()
	for g, m := range got {
		if m != got[0] {
			t.Fatalf("goroutine %d got a different Movie", g)
		}
	}
	if n := len(titles.held); n != 1 {
		t.Errorf("the table holds %d entries after one key, want 1", n)
	}
}

// TestTitlesLetTheLeastRecentlyUsedGo: the table holds maxTitles titles; a
// title used again stays, and the one used longest ago goes.
func TestTitlesLetTheLeastRecentlyUsedGo(t *testing.T) {
	forgetTitles()
	gen := func(seed int64) *Movie { return Generate("lru", StreamConfig{Duration: time.Second, Seed: seed}) }
	first, second := gen(0), gen(1)
	for seed := int64(2); seed < maxTitles; seed++ {
		gen(seed)
	}
	if gen(0) != first {
		t.Fatal("a held title was built again")
	}
	gen(maxTitles)
	if len(titles.held) != maxTitles || !isHeld(first) || isHeld(second) {
		t.Fatalf("after %d titles the table holds %d, first held %v, second held %v; want %d, true, false",
			maxTitles+1, len(titles.held), isHeld(first), isHeld(second), maxTitles)
	}
	if again := gen(1); again == second || !slices.Equal(again.frames, second.frames) {
		t.Error("a title let go came back as the old Movie, or as other frames")
	}
}
