package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/server"
)

// scaleFingerprint is the 10-server / 1,000-viewer trial at seed 1, recorded
// at e84f678 (before the harnesses moved onto core.Deploy): the rendered row,
// then the counters the row is too coarse to show. -table scale is in no
// golden; this is what notices a reordered Open or a changed contact list.
// SyncBytes alone was re-recorded (3,648,900 before) when an Open began to
// announce its own record instead of its server's whole table: 1,000 Opens
// and 300 half-second tables, every other field as it was.
const scaleFingerprint = `row 10 1000 10 1000 0 0.0 0 1.00
servers {FramesSent:300000 VideoBytes:1758528300 SyncMessages:1300 SyncBytes:1322400 SessionsOpened:1000 Takeovers:0 Releases:0 Emergencies:1000 FramesThinned:0 AdmitsReserved:1000 AdmitsBestEffort:0 RefusalsReserved:0 RefusalsBestEffort:0 ShedTokens:0 DegradedFrames:0}
clients {Received:300000 Displayed:299817 Late:183 OverflowDropped:0 OverflowDroppedI:0 GapSkipped:183 Stalls:0 MaxStallRun:0} opens 1000
net sent 430379 delivered 430113`

// sumFields adds src's fields into dst's; both are structs of uint64s.
func sumFields(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
	}
}

// TestTableScaleReduced runs the two-tier table's core at the CI size (10
// servers / 1,000 leased viewers): every viewer must stream healthily, the
// ring-ordered anycast must land each Open on its owner first try, and the
// whole trial must still be the one recorded in scaleFingerprint.
func TestTableScaleReduced(t *testing.T) {
	rt, vs := runScale(1, scaleTitles(1, 10), 1000)
	defer rt.Stop()
	defer vs.close()
	res := vs.scaleResult()
	if res.healthy < 990 {
		t.Fatalf("healthy = %d of 1000, want ≥ 990 (starved %d, worst freeze %d)",
			res.healthy, res.starved, res.worstFreeze)
	}
	if res.starved != 0 {
		t.Fatalf("starved = %d, want 0", res.starved)
	}
	if res.opensPerViewer != 1.0 {
		t.Fatalf("opens/viewer = %.2f, want 1.00 (ring-ordered anycast missed owners)",
			res.opensPerViewer)
	}

	var st server.Stats
	rt.EachServer(func(_ string, s *server.Server) { sumFields(&st, s.Stats()) })
	var cnt buffer.Counters
	var opens uint64
	for _, c := range vs.clients {
		sumFields(&cnt, c.Counters())
		opens += c.Stats().OpensSent
	}
	ns := rt.Net.Stats()
	row := res.row(scalePoint{servers: 10, viewers: 1000})
	got := fmt.Sprintf("row %s\nservers %+v\nclients %+v opens %d\nnet sent %d delivered %d",
		strings.Join(row, " "), st, cnt, opens, ns.Sent, ns.Delivered)
	if got != scaleFingerprint {
		t.Errorf("scale trial moved.\n got:\n%s\nwant:\n%s", got, scaleFingerprint)
	}
}

// TestTableScaleWorkersEquivalent pins the sweep determinism contract for
// the two-tier table: the rendered bytes are identical whether its load
// points run on one worker or eight.
func TestTableScaleWorkersEquivalent(t *testing.T) {
	points := []scalePoint{{servers: 4, viewers: 120}, {servers: 6, viewers: 180}}
	render := func(workers int) []byte {
		SetParallelism(workers)
		defer SetParallelism(0)
		var buf bytes.Buffer
		if err := tableScale(7, points).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, eight := render(1), render(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("table differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}
	if len(bytes.Split(one, []byte("\n"))) < 4 {
		t.Fatalf("table suspiciously short: %q", one)
	}
	if !bytes.Contains(one, []byte(strconv.Itoa(points[0].viewers))) {
		t.Fatalf("table missing viewer column: %s", one)
	}
}
