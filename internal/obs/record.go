package obs

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Record is one entry of the flight-recorder trace: 64 bytes, no pointer the
// caller did not already hold. Each node keeps its own ring, so a record names
// no node. What Ref, Peer, A and B hold is the kind's business; kinds says.
type Record struct {
	At        int64 // ns on the registry's clock
	Kind      Kind
	Ref, Peer string // strings the caller already holds: a client, a group, a movie, a peer
	A, B      int64
}

// Kind enumerates the trace's event kinds; kinds holds each one's dotted name.
type Kind uint8

// The event kinds, "<subsystem>.<event>".
const (
	GCSView Kind = iota
	GCSSuspect
	ServerSessionOpen
	ServerTakeover
	ServerLeaseTakeover
	ServerDuplicateRelease
	ServerEmergencyBoost
	ServerLeaseExpired
	ServerSessionLapsed
	ClientReopen
	ClientReopenOK
	ClientLeaseLost
	ClientEmergency
	FetchDone
	FetchFail
	FetchRedirect
	NetsimLinkDown
	NetsimLinkUp
	NetsimLossBurst
	NetsimLossBurstEnd
	NetsimPartition
	NetsimHeal
	NetsimCrash
	SimCrashServingNoop
	SweepDone
)

// OneWay in A marks a netsim.link_down or link_up record as one direction,
// Ref to Peer; zero means both.
const OneWay int64 = 1

// kinds holds each kind's dotted name and the format of its note. A format
// reads its arguments by index: 1 Ref, 2 Peer, 3 A, 4 B, 5 the link arrow A
// selects, 6 A as the bits of a float64. A format with no verb is the note.
var kinds = [...]struct{ name, format string }{
	GCSView:                {"gcs.view", "%[1]s %[3]d@%[2]s members=%[4]d"},
	GCSSuspect:             {"gcs.suspect", "%[1]s"},
	ServerSessionOpen:      {"server.session_open", "%[1]s movie=%[2]s"},
	ServerTakeover:         {"server.takeover", "%[1]s movie=%[2]s"},
	ServerLeaseTakeover:    {"server.lease_takeover", "%[1]s movie=%[2]s"},
	ServerDuplicateRelease: {"server.duplicate_release", "%[1]s vs %[2]s"},
	ServerEmergencyBoost:   {"server.emergency_boost", "%[1]s"},
	ServerLeaseExpired:     {"server.lease_expired", "%[1]s"},
	ServerSessionLapsed:    {"server.session_lapsed", "%[1]s"},
	ClientReopen:           {"client.reopen", "%[1]s starved at frame %[3]d"},
	ClientReopenOK:         {"client.reopen_ok", "%[1]s resync at frame %[3]d"},
	ClientLeaseLost:        {"client.lease_lost", "%[1]s reopening at frame %[3]d"},
	ClientEmergency:        {"client.emergency", "%[1]s occ=%[3]d"},
	FetchDone:              {"fetch.done", "%[1]s from %[2]s"},
	FetchFail:              {"fetch.fail", "%[1]s from %[2]s: timeout"},
	FetchRedirect:          {"fetch.redirect", "%[1]s to %[2]s"},
	NetsimLinkDown:         {"netsim.link_down", "%[1]s %[5]s %[2]s"},
	NetsimLinkUp:           {"netsim.link_up", "%[1]s %[5]s %[2]s"},
	NetsimLossBurst:        {"netsim.loss_burst", "p=%.2[6]f"},
	NetsimLossBurstEnd:     {"netsim.loss_burst_end", ""},
	NetsimPartition:        {"netsim.partition", "%[3]d groups"},
	NetsimHeal:             {"netsim.heal", "all blocks cleared"},
	NetsimCrash:            {"netsim.crash", "%[1]s"},
	SimCrashServingNoop:    {"sim.crash_serving_noop", "no server holds the session"},
	SweepDone:              {"sweep.done", "%[3]d jobs, %[4]d failed"},
}

// String returns the kind's dotted name.
func (k Kind) String() string { return kinds[k].name }

// Note renders the record's detail through its kind's format.
func (r Record) Note() string {
	format := kinds[r.Kind].format
	if !strings.Contains(format, "%") {
		return format
	}
	arrow := "<->"
	if r.A == OneWay {
		arrow = "->"
	}
	return fmt.Sprintf(format, r.Ref, r.Peer, r.A, r.B, arrow, math.Float64frombits(uint64(r.A)))
}

// Event is a record rendered as text, for -stats and /debug/vod.
type Event struct {
	At   time.Time `json:"at"` // UTC, the simulated clock's zone
	Kind string    `json:"kind"`
	Note string    `json:"note"`
}

// Events renders the snapshot's records oldest-first (nil if none).
func (s Snapshot) Events() []Event {
	if len(s.Records) == 0 {
		return nil
	}
	evs := make([]Event, len(s.Records))
	for i, r := range s.Records {
		evs[i] = Event{At: time.Unix(0, r.At).UTC(), Kind: r.Kind.String(), Note: r.Note()}
	}
	return evs
}
