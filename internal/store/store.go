// Package store holds the movie material a VoD server serves: a catalog of
// movies keyed by ID, plus the replica-placement helper that decides which
// servers hold which movies. The paper assumes "a separate mechanism for
// replicating the video material" (§3, footnote); placement here is that
// mechanism — each movie is replicated on k servers, and a server joins the
// movie group of exactly the movies it holds.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/mpeg"
)

// MovieFileExt is the filename extension of stored movies.
const MovieFileExt = ".vodm"

// ErrNotFound is returned when a movie is not in the catalog.
var ErrNotFound = errors.New("store: movie not found")

// Catalog is a server's movie library. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	movies map[string]*mpeg.Movie
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{movies: make(map[string]*mpeg.Movie)}
}

// Add stores a movie, replacing any previous movie with the same ID.
// Movies can be added while the server runs — the paper's "new movies can
// be added on the fly by storing them on machines where servers run".
func (c *Catalog) Add(m *mpeg.Movie) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.movies[m.ID()] = m
}

// Get returns the movie with the given ID.
func (c *Catalog) Get(id string) (*mpeg.Movie, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.movies[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return m, nil
}

// Has reports whether the catalog holds the movie.
func (c *Catalog) Has(id string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.movies[id]
	return ok
}

// List returns the catalog's movie IDs, sorted.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.movies))
	for id := range c.movies {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SaveTo writes every movie in the catalog to dir, one <id>.vodm file per
// movie. This is the paper's "separate mechanism for replicating the video
// material" at its simplest: copy the files.
func (c *Catalog) SaveTo(dir string) error {
	c.mu.RLock()
	movies := make([]*mpeg.Movie, 0, len(c.movies))
	for _, m := range c.movies {
		movies = append(movies, m)
	}
	c.mu.RUnlock()
	for _, m := range movies {
		path := filepath.Join(dir, m.ID()+MovieFileExt)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("store: saving %s: %w", m.ID(), err)
		}
		_, werr := m.WriteTo(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("store: saving %s: %w", m.ID(), werr)
		}
		if cerr != nil {
			return fmt.Errorf("store: saving %s: %w", m.ID(), cerr)
		}
	}
	return nil
}

// LoadDirectory builds a catalog from every .vodm file in dir.
func LoadDirectory(dir string) (*Catalog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", dir, err)
	}
	c := NewCatalog()
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != MovieFileExt {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", path, err)
		}
		m, rerr := mpeg.ReadFrom(f)
		cerr := f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("store: parsing %s: %w", path, rerr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("store: closing %s: %w", path, cerr)
		}
		c.Add(m)
	}
	return c, nil
}

// Place computes a replica placement: each movie is assigned to replicas
// servers, spread round-robin so load distributes evenly. The result maps
// movie ID to the sorted server list holding it. Place is deterministic in
// its inputs, so every node computes the same placement.
//
// With replicas = k, the service tolerates k−1 server failures per movie
// (§7: "If a movie is replicated k times, then up to k−1 failures are
// tolerated").
func Place(movies []string, servers []string, replicas int) (map[string][]string, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("store: replicas = %d, need ≥ 1", replicas)
	}
	if replicas > len(servers) {
		return nil, fmt.Errorf("store: %d replicas requested with %d servers", replicas, len(servers))
	}
	sortedMovies := append([]string(nil), movies...)
	sort.Strings(sortedMovies)
	sortedServers := append([]string(nil), servers...)
	sort.Strings(sortedServers)

	placement := make(map[string][]string, len(sortedMovies))
	for i, movie := range sortedMovies {
		replicaSet := make([]string, 0, replicas)
		for r := 0; r < replicas; r++ {
			replicaSet = append(replicaSet, sortedServers[(i+r)%len(sortedServers)])
		}
		sort.Strings(replicaSet)
		placement[movie] = replicaSet
	}
	return placement, nil
}
