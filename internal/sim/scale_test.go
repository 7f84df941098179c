package sim

import (
	"bytes"
	"strconv"
	"testing"
)

// TestTableScaleReduced runs the two-tier table's core at the CI size (10
// servers / 1,000 leased viewers): every viewer must stream healthily, and
// the ring-ordered anycast must land each Open on its owner first try.
func TestTableScaleReduced(t *testing.T) {
	res := scaleTrial(1, scaleTitles(1, 10), 1000)
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
