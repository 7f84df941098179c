package store

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mpeg"
)

func testMovie(id string) *mpeg.Movie {
	return mpeg.Generate(id, mpeg.StreamConfig{Duration: time.Second, Seed: 1})
}

func TestCatalogAddGet(t *testing.T) {
	c := NewCatalog()
	m := testMovie("casablanca")
	c.Add(m)
	got, err := c.Get("casablanca")
	if err != nil || got != m {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if !c.Has("casablanca") || c.Has("ghost") {
		t.Fatal("Has() inconsistent")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCatalogGetMissing(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestCatalogRemove(t *testing.T) {
	c := NewCatalog()
	c.Add(testMovie("m"))
	c.remove("m")
	if c.Has("m") {
		t.Fatal("movie survived remove")
	}
}

func TestCatalogListSorted(t *testing.T) {
	c := NewCatalog()
	for _, id := range []string{"zulu", "alpha", "mike"} {
		c.Add(testMovie(id))
	}
	got := c.List()
	want := []string{"alpha", "mike", "zulu"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestPlaceBasics(t *testing.T) {
	movies := []string{"m1", "m2", "m3", "m4"}
	servers := []string{"s1", "s2", "s3"}
	pl, err := Place(movies, servers, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range movies {
		reps := pl[m]
		if len(reps) != 2 {
			t.Fatalf("movie %s has %d replicas, want 2", m, len(reps))
		}
		if reps[0] == reps[1] {
			t.Fatalf("movie %s placed twice on %s", m, reps[0])
		}
	}
}

func TestPlaceBalanced(t *testing.T) {
	movies := make([]string, 9)
	for i := range movies {
		movies[i] = string(rune('a' + i))
	}
	servers := []string{"s1", "s2", "s3"}
	pl, err := Place(movies, servers, 2)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]int{}
	for _, reps := range pl {
		for _, s := range reps {
			load[s]++
		}
	}
	for s, n := range load {
		if n != 6 { // 9 movies × 2 replicas / 3 servers
			t.Fatalf("server %s holds %d replicas, want 6 (placement unbalanced: %v)", s, n, load)
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	movies := []string{"b", "a", "c"}
	servers := []string{"s2", "s1"}
	p1, err := Place(movies, servers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled input order must give the same placement.
	p2, err := Place([]string{"c", "b", "a"}, []string{"s1", "s2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for m := range p1 {
		if len(p1[m]) != len(p2[m]) || p1[m][0] != p2[m][0] {
			t.Fatalf("placement not deterministic: %v vs %v", p1, p2)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	if _, err := Place([]string{"m"}, []string{"s"}, 0); err == nil {
		t.Fatal("replicas=0 accepted")
	}
	if _, err := Place([]string{"m"}, []string{"s"}, 2); err == nil {
		t.Fatal("more replicas than servers accepted")
	}
}
