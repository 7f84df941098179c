package obs

import (
	"encoding/json"
	"net/http"
)

// ServeHTTP implements http.Handler: it writes the registry snapshot as
// indented JSON, in the spirit of expvar's /debug/vars. Wire it under a
// -debug-addr mux:
//
//	mux.Handle("/debug/vod", reg)
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := r.Snapshot()
	_ = enc.Encode(struct {
		Node     string            `json:"node"`
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
		Events   []Event           `json:"events"`
		Dropped  uint64            `json:"events_dropped"`
	}{snap.Node, snap.Counters, snap.Gauges, snap.Events(), snap.Dropped})
}
