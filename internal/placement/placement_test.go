package placement

import (
	"fmt"
	"testing"
)

func movieName(i int) string { return fmt.Sprintf("movie-%04d", i) }

func TestLookupDeterministic(t *testing.T) {
	build := func() *Ring {
		r := New(0)
		// Insertion order must not matter.
		for _, id := range []string{"s3", "s1", "s2"} {
			r.Add(id)
		}
		return r
	}
	a, b := build(), New(0)
	for _, id := range []string{"s1", "s2", "s3"} {
		b.Add(id)
	}
	for i := 0; i < 200; i++ {
		key := movieName(i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("insertion order changed owner of %s: %s vs %s", key, a.Lookup(key), b.Lookup(key))
		}
	}
}

func TestAddIdempotentRemoveUnknown(t *testing.T) {
	r := New(8)
	r.Add("s1")
	r.Add("s1")
	if r.Len() != 1 || len(r.points) != 8 {
		t.Fatalf("double Add: Len=%d points=%d", r.Len(), len(r.points))
	}
	r.remove("nope")
	if r.Len() != 1 {
		t.Fatalf("Remove unknown: Len=%d", r.Len())
	}
	r.remove("s1")
	if r.Len() != 0 || len(r.points) != 0 || r.Lookup("m") != "" {
		t.Fatalf("empty ring: Len=%d points=%d", r.Len(), len(r.points))
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
		if owners[0] != r.Lookup(movieName(i)) {
			t.Fatalf("LookupN[0] != Lookup for %s", movieName(i))
		}
		full := r.LookupN(movieName(i), 0)
		if len(full) != 5 {
			t.Fatalf("full walk = %v", full)
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
		dst = r.AppendOrder(dst[:0], "movie-0001", 3)
	})
	if allocs != 0 {
		t.Fatalf("AppendOrder allocs = %v, want 0", allocs)
	}
}

// TestRemapBound pins the consistent-hashing contract: changing one of
// N servers moves a bounded fraction of movies, and only the movies
// that touch the changed server move at all.
func TestRemapBound(t *testing.T) {
	const movies = 2000
	for _, n := range []int{5, 10, 25, 50} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			base := New(0)
			for i := 0; i < n; i++ {
				base.Add(fmt.Sprintf("srv-%02d", i))
			}
			before := make([]string, movies)
			for i := range before {
				before[i] = base.Lookup(movieName(i))
			}

			// Join: moved movies must all land on the newcomer, and the
			// moved fraction stays within 2/(n+1) — double the expected
			// 1/(n+1) share, slack for vnode variance.
			base.Add("srv-new")
			movedIn := 0
			for i := range before {
				after := base.Lookup(movieName(i))
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

			// Leave: only the removed server's movies move.
			base.remove("srv-new")
			for i := range before {
				if got := base.Lookup(movieName(i)); got != before[i] {
					t.Fatalf("remove did not restore owner of %s: %s vs %s", movieName(i), got, before[i])
				}
			}
			victim := before[0]
			base.remove(victim)
			movedOut := 0
			for i := range before {
				after := base.Lookup(movieName(i))
				if before[i] == victim {
					if after == victim {
						t.Fatalf("%s still owned by removed server", movieName(i))
					}
					movedOut++
				} else if after != before[i] {
					t.Fatalf("remove of %s moved unrelated movie %s (%s→%s)", victim, movieName(i), before[i], after)
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
		load[r.Lookup(movieName(i))]++
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
