package sim

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/transport"
)

type scalePoint struct {
	servers int
	viewers int
}

// scalePoints are the load points of the published scale table.
var scalePoints = []scalePoint{
	{servers: 10, viewers: 1_000},
	{servers: 25, viewers: 4_000},
	{servers: 50, viewers: 10_000},
}

// tableScale is the two-tier capacity table (DESIGN §12): clusters far past
// the full-mesh ceiling, reachable only because viewers hold leases instead
// of group memberships and each movie's virtual-synchrony group is sharded
// to its consistent-hash arc (Replicas owners) rather than every server.
// The top row is a sanity size; the bottom row is the headline 50-server /
// 10,000-viewer configuration (scalePoints). Load points are independent clusters, fanned
// across cores; every row is deterministic for a given seed regardless of
// the worker count.
//
// The table is reachable via -table scale but deliberately absent from
// TableIDs: -table all and -list keep their exact pre-§12 output.
//
// Every viewer here is leased, so every stream is paced by a stripe and
// leaves in batched beats — most of what makes the 10k-viewer row cheap
// enough to regenerate casually.
//
// Tests run it on reduced load points.
func tableScale(seed int64, points []scalePoint) Table {
	t := Table{
		ID:    "Tbl 2T",
		Title: "two-tier capacity: sharded movie groups + leased viewers (§12)",
		Header: []string{
			"servers", "viewers", "titles", "healthy", "starved",
			"stalls/healthy viewer", "worst freeze (ticks)", "opens/viewer",
		},
	}
	// Point i's titles are a prefix of the largest point's, so one set
	// serves every point (and every worker): a Movie is immutable.
	most := 0
	for _, p := range points {
		most = max(most, p.servers)
	}
	titles := scaleTitles(seed, most)
	trials := fanOut(len(points), func(i int) scaleResult {
		return scaleTrial(seed, titles[:points[i].servers], points[i].viewers)
	})
	for i, p := range points {
		t.Rows = append(t.Rows, trials[i].row(p))
	}
	return t
}

type scaleResult struct {
	capacityResult
	opensPerViewer float64 // 1.00 when every Open lands on the ring owner first
}

func (res scaleResult) row(p scalePoint) []string {
	return []string{
		strconv.Itoa(p.servers),
		strconv.Itoa(p.viewers),
		strconv.Itoa(p.servers),
		strconv.Itoa(res.healthy),
		strconv.Itoa(res.starved),
		fmt.Sprintf("%.1f", res.stallsPerHealthy),
		strconv.FormatUint(res.worstFreeze, 10),
		fmt.Sprintf("%.2f", res.opensPerViewer),
	}
}

// scaleMovieLen keeps a 10,000-stream trial inside the CI budget: each
// viewer watches a short feature rather than the 30s one the single-server
// capacity table uses. Health classification scales with it.
const scaleMovieLen = 10 * time.Second

// scaleTitles generates the title set of an n-server trial, one short
// feature per server.
func scaleTitles(seed int64, n int) []*mpeg.Movie {
	movies := make([]*mpeg.Movie, n)
	for i := range movies {
		movies[i] = mpeg.Generate(fmt.Sprintf("title-%02d", i), mpeg.StreamConfig{
			Duration: scaleMovieLen,
			Seed:     seed + int64(i),
		})
	}
	return movies
}

// scaleTrial runs nViewers viewers against a ring deployment of one server
// per movie: each title is stocked only on its arc's two owners and each
// server joins movie groups solely for the titles it holds, so group size
// stays at two while the cluster grows. Viewers attach by lease (no session
// groups at all) with the ring ordering their anycast, arrivals spread over
// the first two seconds.
func scaleTrial(seed int64, movies []*mpeg.Movie, nViewers int) scaleResult {
	rt, vs := runScale(seed, movies, nViewers)
	defer rt.release()
	defer rt.Stop()
	defer vs.close()
	return vs.scaleResult()
}

// scaleResult harvests and classifies the played-out viewers of a trial.
func (vs *viewerSet) scaleResult() scaleResult {
	expected := uint64(scaleMovieLen/time.Second) * 30 * 9 / 10
	vs.harvest()
	var opens uint64
	for _, c := range vs.clients {
		opens += c.Stats().OpensSent
	}
	return scaleResult{
		capacityResult: vs.classify(expected),
		opensPerViewer: float64(opens) / float64(len(vs.clients)),
	}
}

// runScale builds the trial's cluster and plays every viewer out; the caller
// reads the world it returns and tears it down (viewers first).
func runScale(seed int64, movies []*mpeg.Movie, nViewers int) (*Runtime, *viewerSet) {
	rt := newWorld(seed, netsim.LAN())
	rt.Net.SetObs(rt.registry("net")) // as Run attaches it: the netsim.* counters
	serverIDs := make([]string, len(movies))
	for i := range serverIDs {
		serverIDs[i] = fmt.Sprintf("server-%02d", i)
		// 1 Gbps per server: ~200 streams/server at the headline row needs
		// ~280 Mbps, so egress is provisioned, not the bottleneck — the
		// table measures the control plane, not the NIC.
		rt.Net.SetEgressLimit(transport.Addr(serverIDs[i]), 1000*1000*1000/8)
	}
	rt.deploy(core.DeployOptions{Servers: serverIDs, Movies: movies, Replicas: 2, Ring: true})
	rt.Clk.Advance(2 * time.Second) // server core + movie groups converge

	vs := &viewerSet{}
	arrivalGap := 2 * time.Second / time.Duration(nViewers)
	for i := 0; i < nViewers; i++ {
		cfg := rt.ClientConfig(fmt.Sprintf("viewer-%05d", i))
		vs.clients = append(vs.clients, rt.watch(cfg, movies[i%len(movies)].ID()))
		rt.Clk.Advance(arrivalGap)
	}
	rt.Clk.Advance(scaleMovieLen + 2*time.Second) // play out + drain
	return rt, vs
}
