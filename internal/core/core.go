// Package core is the public face of the fault-tolerant VoD library: it
// re-exports the server and client types and provides Deploy, which
// assembles a whole service — replica placement, catalogs, servers — in a
// few lines. The examples and command-line tools are written against this
// package.
//
// The service it builds is the system of "Fault Tolerant Video on Demand
// Services" (Anker, Dolev, Keidar; ICDCS 1999): movies replicated across
// servers, loose coordination through a group communication system, and
// transparent client migration on crash or load imbalance.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/flowctl"
	"repro/internal/mpeg"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

// Re-exported aliases so library users import one package.
type (
	// Server is a VoD server instance.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
	// Client is a VoD client instance.
	Client = client.Client
	// ClientConfig configures a Client.
	ClientConfig = client.Config
	// Movie is a synthetic MPEG stream.
	Movie = mpeg.Movie
	// FlowParams are the flow-control tunables.
	FlowParams = flowctl.Params
)

// NewServer creates a VoD server (call Start on it).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewClient creates a VoD client (call Watch on it).
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// DefaultFlowParams returns the paper's prototype flow-control parameters.
func DefaultFlowParams() FlowParams { return flowctl.DefaultParams() }

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
	// Directory, when set, is a CONGRESS directory address: servers
	// register there and clients resolve the service through it.
	Directory string
	// Flow overrides the flow-control parameters (paper defaults if zero).
	Flow FlowParams
	// SyncInterval overrides the state-sync period (default 500ms).
	SyncInterval time.Duration
}

// Deployment is a running VoD service.
type Deployment struct {
	opts    DeployOptions
	peers   []string
	servers map[string]*Server
	movies  map[string]*Movie
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

	movieIDs := make([]string, 0, len(opts.Movies))
	movies := make(map[string]*Movie, len(opts.Movies))
	for _, m := range opts.Movies {
		movieIDs = append(movieIDs, m.ID())
		movies[m.ID()] = m
	}
	placement, err := store.Place(movieIDs, opts.Servers, opts.Replicas)
	if err != nil {
		return nil, fmt.Errorf("core: placing movies: %w", err)
	}

	peerSet := map[string]bool{}
	for _, s := range opts.Servers {
		peerSet[s] = true
	}
	for _, s := range opts.ExtraPeers {
		peerSet[s] = true
	}
	peers := make([]string, 0, len(peerSet))
	for s := range peerSet {
		peers = append(peers, s)
	}
	sort.Strings(peers)

	d := &Deployment{
		opts:      opts,
		peers:     peers,
		servers:   make(map[string]*Server, len(opts.Servers)),
		movies:    movies,
		Placement: placement,
	}
	for _, id := range opts.Servers {
		if err := d.startServer(id); err != nil {
			d.Stop()
			return nil, err
		}
	}
	return d, nil
}

func (d *Deployment) startServer(id string) error {
	cat := store.NewCatalog()
	for movieID, holders := range d.Placement {
		for _, h := range holders {
			if h == id {
				cat.Add(d.movies[movieID])
			}
		}
	}
	s, err := server.New(server.Config{
		ID:           id,
		Clock:        d.opts.Clock,
		Network:      d.opts.Network,
		Catalog:      cat,
		Peers:        d.peers,
		Directory:    d.opts.Directory,
		Flow:         d.opts.Flow,
		SyncInterval: d.opts.SyncInterval,
	})
	if err != nil {
		return fmt.Errorf("core: creating server %s: %w", id, err)
	}
	if err := s.Start(); err != nil {
		return fmt.Errorf("core: starting server %s: %w", id, err)
	}
	d.servers[id] = s
	return nil
}

// AddServer brings up an additional server holding every movie — the
// load-balancing move of the paper ("new servers may be brought up on the
// fly to alleviate the load on other servers").
func (d *Deployment) AddServer(id string) error {
	if _, ok := d.servers[id]; ok {
		return fmt.Errorf("core: server %s already deployed", id)
	}
	for movieID := range d.Placement {
		if !contains(d.Placement[movieID], id) {
			d.Placement[movieID] = append(d.Placement[movieID], id)
		}
	}
	if !contains(d.peers, id) {
		d.peers = append(d.peers, id)
		sort.Strings(d.peers)
	}
	return d.startServer(id)
}

// StopServer stops one server; peers detect the silence and migrate its
// clients exactly as after a crash.
func (d *Deployment) StopServer(id string) {
	if s, ok := d.servers[id]; ok {
		s.Stop()
		delete(d.servers, id)
	}
}

// Server returns a running server by ID (nil if not running).
func (d *Deployment) Server(id string) *Server { return d.servers[id] }

// ServerIDs returns the running servers' IDs, sorted.
func (d *Deployment) ServerIDs() []string {
	out := make([]string, 0, len(d.servers))
	for id := range d.servers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Peers returns the full contact list (for clients).
func (d *Deployment) Peers() []string { return append([]string(nil), d.peers...) }

// NewClient creates a client wired to this deployment's contact list.
func (d *Deployment) NewClient(id string) (*Client, error) {
	return client.New(client.Config{
		ID:        id,
		Clock:     d.opts.Clock,
		Network:   d.opts.Network,
		Servers:   d.Peers(),
		Directory: d.opts.Directory,
		Flow:      d.opts.Flow,
	})
}

// ServingServer returns which running server currently serves clientID
// ("" if none) — handy for demos and assertions.
func (d *Deployment) ServingServer(clientID string) string {
	for id, s := range d.servers {
		if s.HasSession(clientID) {
			return id
		}
	}
	return ""
}

// Stop stops every server.
func (d *Deployment) Stop() {
	for id := range d.servers {
		d.StopServer(id)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
