package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/congress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// registries is an Obs hook that keeps one registry per node.
type registries map[string]*obs.Registry

func (r registries) get(node string) *obs.Registry {
	if r[node] == nil {
		r[node] = obs.NewRegistry(node, nil)
	}
	return r[node]
}

func (r registries) counter(node, name string) uint64 { return r.get(node).Value(name) }

// TestRingDeployment: with Ring set, each title is stocked on exactly its
// ring owners, and the deployment's clients are leased and open on the
// title's primary owner first try.
func TestRingDeployment(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 3, netsim.LAN())
	servers := []string{"srv-a", "srv-b", "srv-c", "srv-d", "srv-e"}
	var movies []*core.Movie
	for i := 0; i < 6; i++ {
		movies = append(movies, core.GenerateMovie(fmt.Sprintf("title-%d", i), 5*time.Second, int64(i)))
	}
	regs := registries{}
	d, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: servers, Movies: movies,
		Replicas: 2, Ring: true, Obs: regs.get,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	clk.Advance(2 * time.Second)

	ring := placement.New(placement.DefaultVNodes)
	for _, id := range servers {
		ring.Add(id)
	}
	for i, m := range movies {
		owners := ring.LookupN(m.ID(), 2)
		if got := d.Placement[m.ID()]; !slices.Equal(got, owners) {
			t.Fatalf("%s placed on %v, ring owners are %v", m.ID(), got, owners)
		}
		id := fmt.Sprintf("viewer-%d", i)
		cfg := d.ClientConfig(id)
		if cfg.Placement == nil {
			t.Fatalf("ring deployment handed out an unleased client config: %+v", cfg)
		}
		c, err := core.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Watch(m.ID()); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if got := d.ServingServer(id); got != owners[0] {
			t.Errorf("%s served by %q, want its primary owner %s", m.ID(), got, owners[0])
		}
		if got := c.Stats().OpensSent; got != 1 {
			t.Errorf("%s took %d Opens, want 1 (ring order names the owner first)", m.ID(), got)
		}
	}
	// Every Open landed on a server stocked with the title: nobody refused,
	// nobody fetched.
	var opened uint64
	for _, id := range servers {
		opened += regs.counter(id, "server.sessions_opened")
		if n := regs.counter(id, "fetch.requests_sent"); n != 0 {
			t.Errorf("%s sent %d fetch requests in a freshly stocked deployment", id, n)
		}
	}
	if opened != uint64(len(movies)) {
		t.Errorf("servers opened %d sessions, want %d", opened, len(movies))
	}
}

// ringDirectoryRig deploys six titles on a ring of five servers, two
// replicas each, whose servers register at "directory"; a directory runs
// there only when live is set. It returns each title's ring owners.
func ringDirectoryRig(t *testing.T, live bool) (*clock.Virtual, *netsim.Network, *core.Deployment, [][]string) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 5, netsim.LAN())
	if live {
		dir, err := congress.NewDirectory(clk, net, "directory")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dir.Close)
	}
	servers := []string{"srv-a", "srv-b", "srv-c", "srv-d", "srv-e"}
	var movies []*core.Movie
	for i := 0; i < 6; i++ {
		movies = append(movies, core.GenerateMovie(fmt.Sprintf("title-%d", i), time.Minute, int64(i)))
	}
	d, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: servers, Movies: movies,
		Replicas: 2, Ring: true, Directory: "directory",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	clk.Advance(2 * time.Second)
	owners := make([][]string, len(movies))
	for i, m := range movies {
		owners[i] = d.Placement[m.ID()]
	}
	return clk, net, d, owners
}

// watchAll starts one viewer per title, viewer-i watching title-i, each
// made from the deployment's client config; directoryOnly drops its static
// server list.
func watchAll(t *testing.T, d *core.Deployment, titles int, directoryOnly bool) []*core.Client {
	t.Helper()
	viewers := make([]*core.Client, titles)
	for i := range viewers {
		cfg := d.ClientConfig(fmt.Sprintf("viewer-%d", i))
		if directoryOnly {
			cfg.Servers = nil
		}
		c, err := core.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Watch(fmt.Sprintf("title-%d", i)); err != nil {
			t.Fatal(err)
		}
		viewers[i] = c
	}
	return viewers
}

// TestLeasedClientWithoutDirectoryKeepsRingOrder: a leased client whose
// directory never answers falls back to its static list in the title's ring
// order, so once the resolver gives up, its one Open lands on the primary
// owner.
func TestLeasedClientWithoutDirectoryKeepsRingOrder(t *testing.T) {
	clk, _, d, owners := ringDirectoryRig(t, false)
	viewers := watchAll(t, d, len(owners), false)
	clk.Advance(15 * time.Second) // the resolver's six probes time out within ≈ 10 s
	for i, c := range viewers {
		if got := d.ServingServer(c.ID()); got != owners[i][0] {
			t.Errorf("title-%d served by %q, want its primary owner %s", i, got, owners[i][0])
		}
		if got := c.Stats().OpensSent; got != 1 {
			t.Errorf("title-%d took %d Opens, want 1", i, got)
		}
	}
}

// TestLeasedClientResolvesThroughDirectory: leased clients that know only
// the directory open on each title's primary owner at the first try, and a
// crashed owner's viewer moves to the ring successor with one reopen.
func TestLeasedClientResolvesThroughDirectory(t *testing.T) {
	clk, net, d, owners := ringDirectoryRig(t, true)
	viewers := watchAll(t, d, len(owners), true)
	clk.Advance(2 * time.Second)
	for i, c := range viewers {
		if got := d.ServingServer(c.ID()); got != owners[i][0] {
			t.Errorf("title-%d served by %q, want its primary owner %s", i, got, owners[i][0])
		}
		if got := c.Stats().OpensSent; got != 1 {
			t.Errorf("title-%d took %d Opens, want 1", i, got)
		}
	}

	d.StopServer(owners[0][0])
	net.Crash(transport.Addr(owners[0][0]))
	clk.Advance(6 * time.Second)
	if got := d.ServingServer(viewers[0].ID()); got != owners[0][1] {
		t.Errorf("after its owner crashed, title-0 served by %q, want the successor %s", got, owners[0][1])
	}
	if got := viewers[0].Stats().Reopens; got != 1 {
		t.Errorf("title-0 reopened %d times, want 1", got)
	}
}

// TestRestartServerFetchesAndServes: RestartServer returns at once with a
// server that holds nothing; the title arrives over the fetch protocol, and
// the restarted server then carries the viewer alone.
func TestRestartServerFetchesAndServes(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 9, netsim.LAN())
	regs := registries{}
	d, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: []string{"srv-a", "srv-b"},
		Movies: []*core.Movie{core.GenerateMovie("feature", 60*time.Second, 1)},
		Obs:    regs.get,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	clk.Advance(time.Second)
	c, err := d.NewClient("viewer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Watch("feature"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)

	if err := d.RestartServer("srv-a"); err == nil {
		t.Fatal("RestartServer of a running server succeeded")
	}
	if err := d.RestartServer("srv-z"); err == nil {
		t.Fatal("RestartServer of a server nothing is placed on succeeded")
	}
	victim := d.ServingServer("viewer")
	other := "srv-a"
	if victim == other {
		other = "srv-b"
	}
	d.StopServer(victim)
	net.Crash(transport.Addr(victim))
	clk.Advance(5 * time.Second)

	if err := d.RestartServer(victim); err != nil {
		t.Fatal(err)
	}
	if n := regs.counter(victim, "fetch.movies_fetched"); n != 0 {
		t.Fatalf("restarted server has fetched %d movies before any time passed", n)
	}
	clk.Advance(10 * time.Second)
	if n := regs.counter(victim, "fetch.movies_fetched"); n != 1 {
		t.Fatalf("restarted server fetched %d movies, want 1 (it came back empty)", n)
	}
	if n := regs.counter(other, "fetch.chunks_served"); n == 0 {
		t.Fatal("the surviving peer served no fetch chunks")
	}

	d.StopServer(other)
	net.Crash(transport.Addr(other))
	clk.Advance(5 * time.Second)
	before := c.Counters().Displayed
	clk.Advance(5 * time.Second)
	if got := d.ServingServer("viewer"); got != victim {
		t.Fatalf("after the peer died, served by %q, want the restarted %s", got, victim)
	}
	if after := c.Counters().Displayed; after < before+100 {
		t.Fatalf("displayed %d → %d over 5s on the restarted server", before, after)
	}
}

// TestRestartRefetchesFromLivePeerFirst: a cold-restarted server whose first
// configured peer is dead fetches its title from the live peer in its first
// server-group view, within a second. Trying the configured peers in order
// would spend a whole transfer timeout (20 chunk retries) on the dead one
// first — time in which the title's last holder may die too.
func TestRestartRefetchesFromLivePeerFirst(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 9, netsim.LAN())
	regs := registries{}
	d, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: []string{"srv-a", "srv-b", "srv-c"},
		Movies: []*core.Movie{core.GenerateMovie("feature", 5*time.Second, 1)},
		Obs:    regs.get,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	clk.Advance(2 * time.Second)

	// srv-a, first in every contact list, dies for good; srv-c crashes and
	// comes back cold while srv-b is the only live holder.
	for _, id := range []string{"srv-a", "srv-c"} {
		d.StopServer(id)
		net.Crash(transport.Addr(id))
	}
	clk.Advance(3 * time.Second)
	if err := d.RestartServer("srv-c"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if n := regs.counter("srv-c", "fetch.movies_fetched"); n != 1 {
		t.Fatalf("restarted server fetched %d movies within 1s, want 1 (from the live srv-b)", n)
	}
	if n := regs.counter("srv-a", "fetch.chunks_served"); n != 0 {
		t.Fatalf("the dead srv-a served %d chunks", n)
	}
}

// TestRingRestartFetchesFromOwners: a title owner that comes back cold on an
// 8-server ring has every one of its titles back within 2 s. It asks each
// title's other ring owner first; walking the peers in contact order would
// wait a second after every peer that does not hold the title.
func TestRingRestartFetchesFromOwners(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 9, netsim.LAN())
	var servers []string
	for i := range 8 {
		servers = append(servers, fmt.Sprintf("srv-%d", i))
	}
	var movies []*core.Movie
	for i := range 6 {
		movies = append(movies, core.GenerateMovie(fmt.Sprintf("title-%d", i), 5*time.Second, int64(i)))
	}
	regs := registries{}
	d, err := core.Deploy(core.DeployOptions{
		Clock: clk, Network: net, Servers: servers, Movies: movies,
		Replicas: 2, Ring: true, Obs: regs.get,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	clk.Advance(2 * time.Second)

	// The owner with the most titles, the first of them on a tie.
	victim, held := "", 0
	for _, id := range servers {
		n := 0
		for _, holders := range d.Placement {
			if slices.Contains(holders, id) {
				n++
			}
		}
		if n > held {
			victim, held = id, n
		}
	}
	d.StopServer(victim)
	net.Crash(transport.Addr(victim))
	clk.Advance(3 * time.Second)
	if err := d.RestartServer(victim); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if n := regs.counter(victim, "fetch.movies_fetched"); n != uint64(held) {
		t.Fatalf("%s fetched %d of its %d titles within 2s of a cold restart", victim, n, held)
	}
}

// closeLog is a Network whose endpoints record the order they are closed in.
type closeLog struct {
	transport.Network
	closed *[]string
}

func (n closeLog) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.Network.NewEndpoint(addr)
	return loggedEndpoint{ep, n.closed}, err
}

type loggedEndpoint struct {
	transport.Endpoint
	closed *[]string
}

func (e loggedEndpoint) Close() error {
	*e.closed = append(*e.closed, string(e.Addr()))
	return e.Endpoint.Close()
}

// TestDeploymentOrderIsDeterministic: a handoff in which two servers claim
// the viewer at once reads the same from ServingServer on every run (the
// lowest claimant), and Stop takes the servers down in ID order.
func TestDeploymentOrderIsDeterministic(t *testing.T) {
	run := func() (serving, closed []string, overlaps int) {
		clk := clock.NewVirtual(epoch)
		d, err := core.Deploy(core.DeployOptions{
			Clock:      clk,
			Network:    closeLog{netsim.New(clk, 4, netsim.LAN()), &closed},
			Servers:    []string{"srv-d", "srv-b"},
			ExtraPeers: []string{"srv-a", "srv-c"},
			Movies:     []*core.Movie{core.GenerateMovie("feature", 30*time.Second, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		c, err := d.NewClient("viewer")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Watch("feature"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(3 * time.Second)
		// Two newcomers in turn: each wins the viewer from its holder.
		for _, id := range []string{"srv-c", "srv-a"} {
			if err := d.AddServer(id); err != nil {
				t.Fatal(err)
			}
			for until := clk.Now().Add(3 * time.Second); clk.Now().Before(until) && clk.Step(); {
				var claim []string
				d.EachServer(func(id string, s *core.Server) {
					if s.HasSession("viewer") {
						claim = append(claim, id)
					}
				})
				got := d.ServingServer("viewer")
				if len(claim) > 1 {
					overlaps++
					if got != claim[0] {
						t.Fatalf("claimants %v, ServingServer = %q, want the lowest", claim, got)
					}
				}
				if len(serving) == 0 || serving[len(serving)-1] != got {
					serving = append(serving, got)
				}
			}
		}
		c.Close()
		closed = closed[:0]
		d.Stop()
		return serving, closed, overlaps
	}
	serving, closed, overlaps := run()
	if want := []string{"srv-a", "srv-b", "srv-c", "srv-d"}; !slices.Equal(closed, want) {
		t.Fatalf("Stop closed servers in order %v, want %v", closed, want)
	}
	if overlaps == 0 {
		t.Fatal("no step of the scenario had two claimants; it does not test ServingServer's tie-break")
	}
	for i := 1; i < 50; i++ {
		s, c, _ := run()
		if !reflect.DeepEqual(s, serving) || !slices.Equal(c, closed) {
			t.Fatalf("run %d: serving %v closed %v, first run had %v / %v", i, s, c, serving, closed)
		}
	}
}

// TestAddServerLeavesHandedOutContactsAlone: clients alias the contact
// list, so growing it must build a new one.
func TestAddServerLeavesHandedOutContactsAlone(t *testing.T) {
	clk, d := deployRig(t) // srv-a, srv-b started; srv-c a known extra
	if got := d.ServerIDs(); !slices.Equal(got, []string{"srv-a", "srv-b"}) {
		t.Fatalf("deployed %v, want srv-a and srv-b (an extra peer is not started)", got)
	}
	before := d.ClientConfig("early").Servers
	snapshot := slices.Clone(before)
	if err := d.AddServer("srv-0"); err != nil { // sorts before everything handed out
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if !slices.Equal(before, snapshot) {
		t.Fatalf("contact list a client holds changed under it: %v → %v", snapshot, before)
	}
	if got, want := d.ClientConfig("late").Servers, []string{"srv-0", "srv-a", "srv-b", "srv-c"}; !slices.Equal(got, want) {
		t.Fatalf("contact list after AddServer = %v, want %v", got, want)
	}
}
