// Package core is the public face of the fault-tolerant VoD library: it
// re-exports the server and client types and provides Deploy, the one place
// in the repository where a cluster is assembled — replica placement,
// catalogs, servers, and the configuration its clients are made from. The
// examples, the daemons and every simulation harness are written against
// this package.
//
// The service it builds is the system of "Fault Tolerant Video on Demand
// Services" (Anker, Dolev, Keidar; ICDCS 1999): movies replicated across
// servers, loose coordination through a group communication system, and
// transparent client migration on crash or load imbalance.
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/flowctl"
	"repro/internal/mpeg"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

// Re-exported aliases so library users import one package.
type (
	// Server is a VoD server instance.
	Server = server.Server
	// Client is a VoD client instance.
	Client = client.Client
	// ClientConfig configures a Client.
	ClientConfig = client.Config
	// Movie is a synthetic MPEG stream.
	Movie = mpeg.Movie
)

// NewClient creates a VoD client (call Watch on it). Start from
// Deployment.ClientConfig to get one wired to a deployment.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// GenerateMovie synthesizes a test movie with the paper's stream
// parameters (1.4 Mbps, 30 fps) and the given duration.
func GenerateMovie(id string, duration time.Duration, seed int64) *Movie {
	return mpeg.Generate(id, mpeg.StreamConfig{Duration: duration, Seed: seed})
}

// DeployOptions describes a whole VoD service deployment.
type DeployOptions struct {
	// Clock and Network supply the runtime (virtual clock + simulated
	// network, or real clock + UDP).
	Clock   clock.Clock
	Network transport.Network
	// Servers are the server IDs (transport addresses) to start now.
	Servers []string
	// ExtraPeers are additional server addresses that may join later;
	// they are included in every contact list so late servers merge in.
	ExtraPeers []string
	// Movies is the material to serve.
	Movies []*Movie
	// Replicas is the replication factor k; each movie lands on k servers
	// and tolerates k−1 failures (default: all servers).
	Replicas int
	// Ring places movies by consistent hashing over Servers instead of
	// round-robin, and switches the deployment to two-tier membership
	// (DESIGN §12): each movie group is scoped to its Replicas ring owners,
	// and ClientConfig hands out leased clients whose Open anycast walks
	// the movie's ring order.
	Ring bool
	// Directory, when set, is a CONGRESS directory address: servers
	// register there and clients resolve the service through it.
	Directory string
	// Flow overrides the flow-control parameters (paper defaults if zero).
	Flow flowctl.Params
	// SyncInterval overrides the state-sync period (default 500ms).
	SyncInterval time.Duration
	// MaxSessions, when positive, is every server's admission limit.
	MaxSessions int
	// Overload configures every server's class-aware overload control
	// (off when zero).
	Overload server.OverloadConfig
	// Obs, when set, is asked once per node started — each server
	// incarnation, each ClientConfig — for the registry that receives the
	// node's counters and trace. Returning the same registry for an ID
	// again accumulates across restarts.
	Obs func(node string) *obs.Registry
}

// node is one server ID the deployment has ever started.
type node struct {
	id  string
	srv *Server // nil while stopped
}

// Deployment is a running VoD service.
type Deployment struct {
	opts DeployOptions
	// peers is the sorted contact list. Clients alias it read-only, so it
	// is replaced, never modified in place.
	peers  []string
	ring   *placement.Ring // nil unless opts.Ring
	movies map[string]*Movie
	// nodes is sorted by ID and only grows: every walk over the servers —
	// Stop, ServingServer, EachServer — sees them in the same order on
	// every run.
	nodes []node
	// Placement maps movie ID to the servers holding it.
	Placement map[string][]string
}

// Deploy places the movies, builds per-server catalogs, and starts every
// server. The caller owns the returned deployment and must Stop it.
func Deploy(opts DeployOptions) (*Deployment, error) {
	if opts.Clock == nil || opts.Network == nil {
		return nil, fmt.Errorf("core: Clock and Network are required")
	}
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("core: no servers to deploy")
	}
	if len(opts.Movies) == 0 {
		return nil, fmt.Errorf("core: no movies to serve")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = len(opts.Servers)
	}

	peers := sortedUnion(opts.Servers, opts.ExtraPeers)
	d := &Deployment{
		opts:   opts,
		peers:  peers,
		movies: make(map[string]*Movie, len(opts.Movies)),
		nodes:  make([]node, 0, len(peers)),
	}
	movieIDs := make([]string, 0, len(opts.Movies))
	for _, m := range opts.Movies {
		movieIDs = append(movieIDs, m.ID())
		d.movies[m.ID()] = m
	}
	if opts.Ring {
		d.ring = placement.New(placement.DefaultVNodes)
		for _, id := range opts.Servers {
			d.ring.Add(id)
		}
		d.Placement = make(map[string][]string, len(movieIDs))
		for _, id := range movieIDs {
			d.Placement[id] = d.ring.LookupN(id, opts.Replicas)
		}
	} else {
		var err error
		d.Placement, err = store.Place(movieIDs, opts.Servers, opts.Replicas)
		if err != nil {
			return nil, fmt.Errorf("core: placing movies: %w", err)
		}
	}
	for _, id := range opts.Servers {
		if err := d.start(id, false); err != nil {
			d.Stop()
			return nil, err
		}
	}
	return d, nil
}

func sortedUnion(a, b []string) []string {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// start builds and starts server id with the titles placed on it: in its
// catalog, or — cold — in its fetch list with the catalog left empty.
func (d *Deployment) start(id string, cold bool) error {
	i, known := d.find(id)
	if known && d.nodes[i].srv != nil {
		return fmt.Errorf("core: server %s is already running", id)
	}
	cat := store.NewCatalog()
	var fetch []string
	for movieID, holders := range d.Placement {
		switch {
		case !slices.Contains(holders, id):
		case cold:
			fetch = append(fetch, movieID)
		default:
			cat.Add(d.movies[movieID])
		}
	}
	slices.Sort(fetch)
	if cold && len(fetch) == 0 {
		return fmt.Errorf("core: no movie is placed on %s, nothing to restart", id)
	}
	s, err := server.New(server.Config{
		ID:           id,
		Clock:        d.opts.Clock,
		Network:      d.opts.Network,
		Catalog:      cat,
		FetchMovies:  fetch,
		Peers:        d.peers,
		Directory:    d.opts.Directory,
		MaxSessions:  d.opts.MaxSessions,
		Overload:     d.opts.Overload,
		Placement:    d.ring,
		Replicas:     d.opts.Replicas,
		Flow:         d.opts.Flow,
		SyncInterval: d.opts.SyncInterval,
		Obs:          d.registry(id),
	})
	if err != nil {
		return fmt.Errorf("core: creating server %s: %w", id, err)
	}
	if err := s.Start(); err != nil {
		return fmt.Errorf("core: starting server %s: %w", id, err)
	}
	if !known {
		d.nodes = slices.Insert(d.nodes, i, node{id: id})
	}
	d.nodes[i].srv = s
	return nil
}

// registry asks the Obs hook, if any, for a node's registry.
func (d *Deployment) registry(node string) *obs.Registry {
	if d.opts.Obs == nil {
		return nil
	}
	return d.opts.Obs(node)
}

func (d *Deployment) find(id string) (int, bool) {
	return slices.BinarySearchFunc(d.nodes, id, func(n node, id string) int { return strings.Compare(n.id, id) })
}

// AddServer brings up an additional server holding every movie — the
// load-balancing move of the paper ("new servers may be brought up on the
// fly to alleviate the load on other servers").
func (d *Deployment) AddServer(id string) error {
	if d.Server(id) != nil {
		return fmt.Errorf("core: server %s is already running", id)
	}
	for movieID, holders := range d.Placement {
		if !slices.Contains(holders, id) {
			d.Placement[movieID] = append(holders, id)
		}
	}
	if !slices.Contains(d.peers, id) {
		d.peers = sortedUnion(d.peers, []string{id})
	}
	return d.start(id, false)
}

// RestartServer cold-starts a stopped server under its old identity: it
// comes back with an empty catalog, fetches the titles placed on it from
// whichever peers hold them, and joins each movie group as its title lands
// — §7's "a new server can be brought up without any special preparations"
// applied to crash recovery.
func (d *Deployment) RestartServer(id string) error { return d.start(id, true) }

// StopServer stops one server; peers detect the silence and migrate its
// clients exactly as after a crash.
func (d *Deployment) StopServer(id string) {
	if i, ok := d.find(id); ok && d.nodes[i].srv != nil {
		d.nodes[i].srv.Stop()
		d.nodes[i].srv = nil
	}
}

// Server returns a running server by ID (nil if not running).
func (d *Deployment) Server(id string) *Server {
	if i, ok := d.find(id); ok {
		return d.nodes[i].srv
	}
	return nil
}

// EachServer calls f for every running server in ID order, without
// allocating. f must not start or stop servers.
func (d *Deployment) EachServer(f func(id string, s *Server)) {
	for _, n := range d.nodes {
		if n.srv != nil {
			f(n.id, n.srv)
		}
	}
}

// ServerIDs returns the running servers' IDs, sorted.
func (d *Deployment) ServerIDs() []string {
	out := make([]string, 0, len(d.nodes))
	d.EachServer(func(id string, _ *Server) { out = append(out, id) })
	return out
}

// Peers returns the full contact list, sorted. It is shared with every
// client made from ClientConfig: read-only.
func (d *Deployment) Peers() []string { return d.peers }

// ClientConfig returns the configuration of a client of this deployment:
// its contact list, directory and flow parameters, and — on a ring
// deployment — lease mode with the ring ordering the Open anycast. It is
// returned by value for the caller to adjust (Class, Buffer, a narrower
// Servers) before NewClient.
func (d *Deployment) ClientConfig(id string) ClientConfig {
	return ClientConfig{
		ID:        id,
		Clock:     d.opts.Clock,
		Network:   d.opts.Network,
		Servers:   d.peers,
		Directory: d.opts.Directory,
		Flow:      d.opts.Flow,
		Lease:     d.ring != nil,
		Placement: d.ring,
		Obs:       d.registry(id),
	}
}

// NewClient creates a client of this deployment.
func (d *Deployment) NewClient(id string) (*Client, error) { return NewClient(d.ClientConfig(id)) }

// ServingServer returns which running server currently serves clientID
// ("" if none; the lowest ID when a handoff has two claimants) — handy for
// demos and assertions.
func (d *Deployment) ServingServer(clientID string) string {
	for _, n := range d.nodes {
		if n.srv != nil && n.srv.HasSession(clientID) {
			return n.id
		}
	}
	return ""
}

// Stop stops every server, in ID order.
func (d *Deployment) Stop() {
	for _, n := range d.nodes {
		d.StopServer(n.id)
	}
}
