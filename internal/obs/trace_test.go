package obs

import (
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestTraceRingOverwrite: past the depth the ring keeps the newest records,
// oldest first, and counts the rest as dropped.
func TestTraceRingOverwrite(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := NewRegistry("n", func() time.Time { return now })
	for i := 0; i < defaultTraceDepth+10; i++ {
		r.Emit(GCSSuspect, "", "", int64(i), 0)
	}
	snap := r.Snapshot()
	if len(snap.Records) != defaultTraceDepth {
		t.Fatalf("trace holds %d records, want %d", len(snap.Records), defaultTraceDepth)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
	// Oldest surviving record first.
	if snap.Records[0].A != 10 {
		t.Fatalf("first record = %d, want 10", snap.Records[0].A)
	}
	last := snap.Records[len(snap.Records)-1]
	if last.A != defaultTraceDepth+9 {
		t.Fatalf("last record = %d", last.A)
	}
	if at := snap.Events()[len(snap.Records)-1].At; !at.Equal(now) {
		t.Fatalf("record timestamp = %v, want the injected clock's %v", at, now)
	}
}

// TestTraceGrowsToDepth pins the flight recorder's on-demand ring: a fresh
// registry holds no ring, the first record allocates traceStart slots, a
// partial fill snapshots in order, and past the depth the ring wraps with
// TestTraceRingOverwrite's oldest-first order and drop count.
func TestTraceGrowsToDepth(t *testing.T) {
	r := NewRegistry("n", func() time.Time { return time.Time{} })
	if r.trace.ring != nil {
		t.Fatalf("NewRegistry allocated a %d-slot ring before any record", cap(r.trace.ring))
	}
	if snap := r.Snapshot(); snap.Records != nil || snap.Dropped != 0 {
		t.Fatalf("empty trace snapshots %v records, %d dropped; want nil, 0", snap.Records, snap.Dropped)
	}

	logged := 0
	logTo := func(n int) {
		for ; logged < n; logged++ {
			r.Emit(GCSSuspect, "", "", int64(logged), 0)
		}
	}
	// wantKept checks the snapshot holds records <from>..<logged-1> in order.
	wantKept := func(from int) {
		t.Helper()
		snap := r.Snapshot()
		if len(snap.Records) != logged-from || snap.Dropped != uint64(from) {
			t.Fatalf("after %d records: %d kept, %d dropped; want %d, %d", logged, len(snap.Records), snap.Dropped, logged-from, from)
		}
		for i, rec := range snap.Records {
			if want := int64(from + i); rec.A != want {
				t.Fatalf("after %d records: record %d is %d, want %d", logged, i, rec.A, want)
			}
		}
	}

	logTo(1)
	if got := cap(r.trace.ring); got != 16 {
		t.Fatalf("first record allocated %d slots, want 16", got)
	}
	wantKept(0)
	logTo(defaultTraceDepth/2 + 3)
	wantKept(0)
	logTo(defaultTraceDepth + 10)
	if len(r.trace.ring) != defaultTraceDepth {
		t.Fatalf("ring holds %d records past its depth %d", len(r.trace.ring), defaultTraceDepth)
	}
	wantKept(10)
	logTo(3*defaultTraceDepth + 7)
	wantKept(2*defaultTraceDepth + 7)
}

// TestEmitAllocFree: a record is 64 bytes, and Emit allocates nothing on a
// registry whose ring is at depth, nor on a nil registry.
func TestEmitAllocFree(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 64 {
		t.Errorf("a record is %d bytes, want 64", size)
	}
	ref, peer := "vod.session.c1", "s1"
	r := NewRegistry("n", time.Now)
	for i := 0; i < defaultTraceDepth; i++ {
		r.Emit(GCSView, ref, peer, 3, 2)
	}
	var unobserved *Registry
	for name, reg := range map[string]*Registry{"at depth": r, "nil": unobserved} {
		if allocs := testing.AllocsPerRun(100, func() { reg.Emit(GCSView, ref, peer, 3, 2) }); allocs != 0 {
			t.Errorf("Emit on a %s registry: %v allocs, want 0", name, allocs)
		}
	}
}

// TestRecordNotes pins each kind's dotted name and the note it renders: the
// text the trace printed when every call site built its note.
func TestRecordNotes(t *testing.T) {
	cases := []struct {
		rec        Record
		name, note string
	}{
		{Record{Kind: GCSView, Ref: "vod.session.c1", Peer: "s1", A: 3, B: 2}, "gcs.view", "vod.session.c1 3@s1 members=2"},
		{Record{Kind: GCSSuspect, Ref: "s2"}, "gcs.suspect", "s2"},
		{Record{Kind: ServerSessionOpen, Ref: "c1", Peer: "casablanca"}, "server.session_open", "c1 movie=casablanca"},
		{Record{Kind: ServerTakeover, Ref: "c1", Peer: "casablanca"}, "server.takeover", "c1 movie=casablanca"},
		{Record{Kind: ServerLeaseTakeover, Ref: "c1", Peer: "casablanca"}, "server.lease_takeover", "c1 movie=casablanca"},
		{Record{Kind: ServerDuplicateRelease, Ref: "c1", Peer: "s2"}, "server.duplicate_release", "c1 vs s2"},
		{Record{Kind: ServerEmergencyBoost, Ref: "c1"}, "server.emergency_boost", "c1"},
		{Record{Kind: ServerLeaseExpired, Ref: "c1"}, "server.lease_expired", "c1"},
		{Record{Kind: ServerSessionLapsed, Ref: "c1"}, "server.session_lapsed", "c1"},
		{Record{Kind: ClientReopen, Ref: "c1", A: 120}, "client.reopen", "c1 starved at frame 120"},
		{Record{Kind: ClientReopenOK, Ref: "c1", A: 120}, "client.reopen_ok", "c1 resync at frame 120"},
		{Record{Kind: ClientLeaseLost, Ref: "c1", A: 120}, "client.lease_lost", "c1 reopening at frame 120"},
		{Record{Kind: ClientEmergency, Ref: "c1", A: 7}, "client.emergency", "c1 occ=7"},
		{Record{Kind: FetchDone, Ref: "casablanca", Peer: "s2"}, "fetch.done", "casablanca from s2"},
		{Record{Kind: FetchFail, Ref: "casablanca", Peer: "s2"}, "fetch.fail", "casablanca from s2: timeout"},
		{Record{Kind: FetchRedirect, Ref: "casablanca", Peer: "s3"}, "fetch.redirect", "casablanca to s3"},
		{Record{Kind: NetsimLinkDown, Ref: "a", Peer: "b"}, "netsim.link_down", "a <-> b"},
		{Record{Kind: NetsimLinkDown, Ref: "a", Peer: "b", A: OneWay}, "netsim.link_down", "a -> b"},
		{Record{Kind: NetsimLinkUp, Ref: "a", Peer: "b"}, "netsim.link_up", "a <-> b"},
		{Record{Kind: NetsimLinkUp, Ref: "a", Peer: "b", A: OneWay}, "netsim.link_up", "a -> b"},
		{Record{Kind: NetsimLossBurst, A: int64(math.Float64bits(0.35))}, "netsim.loss_burst", "p=0.35"},
		{Record{Kind: NetsimLossBurst, A: int64(math.Float64bits(1))}, "netsim.loss_burst", "p=1.00"},
		{Record{Kind: NetsimLossBurstEnd}, "netsim.loss_burst_end", ""},
		{Record{Kind: NetsimPartition, A: 2}, "netsim.partition", "2 groups"},
		{Record{Kind: NetsimHeal}, "netsim.heal", "all blocks cleared"},
		{Record{Kind: NetsimCrash, Ref: "s1"}, "netsim.crash", "s1"},
		{Record{Kind: SimCrashServingNoop}, "sim.crash_serving_noop", "no server holds the session"},
		{Record{Kind: SweepDone, A: 400, B: 1}, "sweep.done", "400 jobs, 1 failed"},
	}
	covered := map[Kind]bool{}
	for _, c := range cases {
		covered[c.rec.Kind] = true
		if got := c.rec.Kind.String(); got != c.name {
			t.Errorf("kind %d is named %q, want %q", c.rec.Kind, got, c.name)
		}
		if got := c.rec.note(); got != c.note {
			t.Errorf("%s note = %q, want %q", c.name, got, c.note)
		}
	}
	if len(covered) != len(kinds) {
		t.Errorf("the table covers %d of %d kinds", len(covered), len(kinds))
	}
}

// TestEventAtIsUTC: a rendered record's time is in UTC, the simulated clock's
// zone, whatever zone the host runs in.
func TestEventAtIsUTC(t *testing.T) {
	defer func(local *time.Location) { time.Local = local }(time.Local)
	time.Local = time.FixedZone("EST", -5*3600)
	at := time.Date(2026, 1, 1, 0, 0, 39, 520_000_000, time.UTC)
	r := NewRegistry("n", func() time.Time { return at.In(time.Local) })
	r.Emit(NetsimHeal, "", "", 0, 0)
	ev := r.Snapshot().Events()[0]
	if ev.At.Location() != time.UTC || !ev.At.Equal(at) {
		t.Fatalf("event at %v, want %v", ev.At, at)
	}
	if got := ev.At.Format("15:04:05.000"); got != "00:00:39.520" {
		t.Fatalf("event renders at %s, want 00:00:39.520", got)
	}
}
