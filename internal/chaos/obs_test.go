package chaos

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The names each kind of node reports, as they stood when the server and
// client kept a second copy of every count in obs counters: reading the
// owners' own counts must neither add nor lose one.
var (
	serverNames = []string{
		"fetch.chunk_retries", "fetch.chunks_served", "fetch.failures", "fetch.movies_fetched",
		"fetch.not_found", "fetch.requests_sent",
		"gcs.fd_suspicions", "gcs.flush_rounds", "gcs.naks_sent", "gcs.retransmissions", "gcs.view_changes",
		"server.emergency_boosts", "server.frames_sent", "server.frames_thinned", "server.releases",
		"server.sessions_opened", "server.sync_bytes", "server.sync_messages", "server.takeovers",
		"server.video_bytes",
	}
	serverGauges = []string{"server.active_sessions"}
	clientNames  = []string{
		"client.emergencies_sent", "client.flow_sent", "client.frames_received", "client.late_frames",
		"client.open_retries", "client.opens_sent", "client.reopens", "client.skipped_frames",
		"client.stalls", "client.stray_frames", "client.vcr_sent",
		"gcs.fd_suspicions", "gcs.flush_rounds", "gcs.naks_sent", "gcs.retransmissions", "gcs.view_changes",
	}
	clientGauges = []string{"client.combined_occupancy", "client.hw_occupancy_bytes", "client.sw_occupancy"}
	netNames     = []string{"netsim.delivered", "netsim.delivered_bytes", "netsim.dropped", "netsim.sent"}
)

// TestObsReadsTheOwners: what a node's registry reports is what the node
// counted. Every server's server.* values equal the harness's lifetime Stats
// for that ID, summed over its incarnations; the client's client.* values
// equal its Stats and buffer Counters; and every node reports exactly the
// names it always has. Chaos seed 2897 cold-restarts server-3, so two
// incarnations of one server report into one registry.
func TestObsReadsTheOwners(t *testing.T) {
	plan := NewPlan(2897)
	if !slices.ContainsFunc(plan.Ops, func(op Op) bool { return op.Kind == KindRestart }) {
		t.Fatal("chaos seed 2897 no longer cold-restarts a server; pick a seed that does")
	}
	_, chaosRun := execute(plan, feature())
	for _, tc := range []struct {
		name string
		res  *sim.Result
	}{
		{"LAN", sim.Run(sim.LANScenario(1))},
		{"WAN", sim.Run(sim.WANScenario(1))},
		{"chaos-2897", chaosRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.res
			if len(res.ServerStats) == 0 {
				t.Fatal("the run reports no server")
			}
			for id, st := range res.ServerStats {
				checkNode(t, res, id, serverNames, serverGauges, map[string]uint64{
					"server.sessions_opened":  st.SessionsOpened,
					"server.takeovers":        st.Takeovers,
					"server.releases":         st.Releases,
					"server.frames_sent":      st.FramesSent,
					"server.video_bytes":      st.VideoBytes,
					"server.frames_thinned":   st.FramesThinned,
					"server.emergency_boosts": st.Emergencies,
					"server.sync_messages":    st.SyncMessages,
					"server.sync_bytes":       st.SyncBytes,
				})
			}
			cs, cnt := res.ClientStats, res.Final
			checkNode(t, res, "client-1", clientNames, clientGauges, map[string]uint64{
				"client.opens_sent":       cs.OpensSent,
				"client.open_retries":     cs.OpenRetries,
				"client.reopens":          cs.Reopens,
				"client.flow_sent":        cs.FlowSent,
				"client.emergencies_sent": cs.EmergenciesSent,
				"client.vcr_sent":         cs.VCRSent,
				"client.frames_received":  cnt.Received,
				"client.stalls":           cnt.Stalls,
				"client.late_frames":      cnt.Late,
				"client.skipped_frames":   cnt.Skipped(),
			})
			checkNode(t, res, "net", netNames, nil, nil)
			if n := len(res.Obs); n != len(res.ServerStats)+2 {
				t.Errorf("%d registries, want one per server, the client and net", n)
			}
		})
	}
}

// checkNode compares node's snapshot with the names it must report and the
// values its owner counted.
func checkNode(t *testing.T, res *sim.Result, node string, names, gauges []string, want map[string]uint64) {
	t.Helper()
	reg := res.Obs[node]
	if reg == nil {
		t.Errorf("no registry for %s", node)
		return
	}
	snap := reg.Snapshot()
	if got := sortedKeys(snap.Counters); !slices.Equal(got, names) {
		t.Errorf("%s reports counters\n\t%s\nwant\n\t%s", node, strings.Join(got, " "), strings.Join(names, " "))
	}
	if got := sortedKeys(snap.Gauges); !slices.Equal(got, gauges) {
		t.Errorf("%s reports gauges %v, want %v", node, got, gauges)
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s %s = %d, its owner counted %d", node, name, got, v)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
