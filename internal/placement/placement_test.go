package placement

import (
	"fmt"
	"slices"
	"testing"
)

func movieName(i int) string { return fmt.Sprintf("movie-%04d", i) }

// ringOf builds a default ring over ids, added in the order given.
func ringOf(ids ...string) *Ring {
	r := New(0)
	for _, id := range ids {
		r.Add(id)
	}
	return r
}

// owner is key's primary owner on r, or "" on an empty ring.
func owner(r *Ring, key string) string {
	if owners := r.LookupN(key, 1); len(owners) > 0 {
		return owners[0]
	}
	return ""
}

func TestLookupDeterministic(t *testing.T) {
	// Insertion order must not matter.
	a, b := ringOf("s3", "s1", "s2"), ringOf("s1", "s2", "s3")
	for i := 0; i < 200; i++ {
		key := movieName(i)
		if owner(a, key) != owner(b, key) {
			t.Fatalf("insertion order changed owner of %s: %s vs %s", key, owner(a, key), owner(b, key))
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New(8)
	if owner(r, "m") != "" || len(r.Order("m")) != 0 {
		t.Fatalf("empty ring owns m: %v", r.Order("m"))
	}
	r.Add("s1")
	r.Add("s1")
	if r.Len() != 1 || len(r.points) != 8 {
		t.Fatalf("double Add: Len=%d points=%d", r.Len(), len(r.points))
	}
}

func TestLookupNDistinctOwners(t *testing.T) {
	r := New(0)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < 50; i++ {
		owners := r.LookupN(movieName(i), 3)
		if len(owners) != 3 {
			t.Fatalf("LookupN(3) = %v", owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner in %v", owners)
			}
			seen[o] = true
		}
		full := r.LookupN(movieName(i), 0)
		if len(full) != 5 || !slices.Equal(full[:3], owners) {
			t.Fatalf("full walk %v does not start with LookupN(3) %v", full, owners)
		}
	}
}

func TestAppendOrderNoAlloc(t *testing.T) {
	r := New(0)
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprintf("s%d", i))
	}
	dst := make([]string, 0, 10)
	allocs := testing.AllocsPerRun(100, func() {
		dst = r.appendOrder(dst[:0], "movie-0001", 3)
	})
	if allocs != 0 {
		t.Fatalf("appendOrder allocs = %v, want 0", allocs)
	}
}

// TestRemapBound pins the consistent-hashing contract: changing one of
// N servers moves a bounded fraction of movies, and only the movies
// that touch the changed server move at all. A ring without one server
// walks every key in the full ring's order with that server skipped,
// which is what lets a client order a live subset of servers by its ring.
func TestRemapBound(t *testing.T) {
	const movies = 2000
	for _, n := range []int{5, 10, 25, 50} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("srv-%02d", i)
			}
			base := ringOf(ids...)
			before := make([]string, movies)
			for i := range before {
				before[i] = owner(base, movieName(i))
			}

			// Join: moved movies must all land on the newcomer, and the
			// moved fraction stays within 2/(n+1) — double the expected
			// 1/(n+1) share, slack for vnode variance.
			joined := ringOf(append(ids, "srv-new")...)
			movedIn := 0
			for i := range before {
				after := owner(joined, movieName(i))
				if after != before[i] {
					movedIn++
					if after != "srv-new" {
						t.Fatalf("join moved %s to %s, not the new server", movieName(i), after)
					}
				}
			}
			if bound := movies * 2 / (n + 1); movedIn > bound {
				t.Fatalf("join moved %d/%d movies, bound %d", movedIn, movies, bound)
			}
			if movedIn == 0 {
				t.Fatalf("join moved nothing — ring not rebalancing")
			}

			// Leave: only the departed server's movies move, and every walk
			// is the full walk with the departed server skipped.
			victim := before[0]
			left := ringOf(slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return id == victim })...)
			movedOut := 0
			for i := range before {
				after := owner(left, movieName(i))
				if before[i] == victim {
					if after == victim {
						t.Fatalf("%s still owned by removed server", movieName(i))
					}
					movedOut++
				} else if after != before[i] {
					t.Fatalf("remove of %s moved unrelated movie %s (%s→%s)", victim, movieName(i), before[i], after)
				}
				skipped := slices.DeleteFunc(slices.Clone(base.Order(movieName(i))), func(id string) bool { return id == victim })
				if walk := left.Order(movieName(i)); !slices.Equal(walk, skipped) {
					t.Fatalf("%s: walk without %s is %v, want %v", movieName(i), victim, walk, skipped)
				}
			}
			if bound := movies * 2 / n; movedOut > bound {
				t.Fatalf("leave moved %d/%d movies, bound %d", movedOut, movies, bound)
			}
		})
	}
}

func TestLoadSpread(t *testing.T) {
	// With DefaultVNodes the most-loaded of 50 servers should carry
	// less than 2.5x the mean over a 5000-movie catalog.
	r := New(0)
	const n, movies = 50, 5000
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("srv-%02d", i))
	}
	load := map[string]int{}
	for i := 0; i < movies; i++ {
		load[owner(r, movieName(i))]++
	}
	mean := movies / n
	for id, got := range load {
		if got > mean*5/2 {
			t.Fatalf("server %s carries %d movies, mean %d", id, got, mean)
		}
	}
	if len(load) != n {
		t.Fatalf("only %d of %d servers own movies", len(load), n)
	}
}
