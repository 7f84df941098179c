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
	_ = enc.Encode(r.Snapshot())
}
