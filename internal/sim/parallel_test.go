package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// withParallelism runs f under a temporary worker bound, restoring the
// default afterwards. The knob only changes scheduling, never results —
// that is exactly what these tests pin.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

// TestTableParallelEquivalence: every fanned-out table generator must
// produce byte-identical output at workers=1 and workers=8. tableCapacity
// is the heavyweight (five independent clusters of up to 85 viewers);
// tableTakeover sweeps five seeded trials. A diff here means a concurrent
// run leaked state into another — the bug class the sweep engine's
// contract forbids.
func TestTableParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the capacity table twice; skipped in -short")
	}
	gens := []struct {
		name string
		gen  func() Table
	}{
		{"capacity", func() Table { return tableCapacity(1) }},
		{"takeover", func() Table { return tableTakeover(5) }},
		{"syncsweep", func() Table { return tableSyncSweep(1) }},
	}
	for _, g := range gens {
		var seq, par Table
		withParallelism(t, 1, func() { seq = g.gen() })
		withParallelism(t, 8, func() { par = g.gen() })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("table %s diverged between workers=1 and workers=8:\n%v\nvs\n%v",
				g.name, seq, par)
		}
		var a, b bytes.Buffer
		if err := seq.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("table %s rendered differently:\n%s\nvs\n%s", g.name, a.String(), b.String())
		}
	}
}

// TestFiguresParallelEquivalence: the figure set (LAN + WAN scenarios run
// concurrently) is byte-identical to the sequential run, series by series.
func TestFiguresParallelEquivalence(t *testing.T) {
	type rendered map[string]string
	render := func() rendered {
		figs, _ := Figures(1)
		out := make(rendered, len(figs))
		for id, s := range figs {
			var buf bytes.Buffer
			if err := s.WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
			out[id] = buf.String()
		}
		return out
	}
	var seq, par rendered
	withParallelism(t, 1, func() { seq = render() })
	withParallelism(t, 8, func() { par = render() })
	for _, id := range FigureIDs() {
		if seq[id] == "" {
			t.Fatalf("figure %s missing from sequential set", id)
		}
		if seq[id] != par[id] {
			t.Errorf("figure %s diverged between workers=1 and workers=8", id)
		}
	}
}

// TestSetParallelismClamps: negative settings restore the all-cores
// default instead of wedging the pool at zero workers.
func TestSetParallelismClamps(t *testing.T) {
	SetParallelism(-3)
	defer SetParallelism(0)
	if got := parallelism.Load(); got != 0 {
		t.Fatalf("parallelism = %d after SetParallelism(-3), want 0", got)
	}
	// And a table still generates under the default.
	if tab := tableFlowControl(); len(tab.Rows) == 0 {
		t.Fatal("empty table under default parallelism")
	}
}
