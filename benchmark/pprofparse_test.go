package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
)

// TestStackLayer pins the nearest-repository-frame rule on canned stacks
// (leaf first, as profiles list them).
func TestStackLayer(t *testing.T) {
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"leaf in a layer", []string{"repro/internal/clock.(*Virtual).Step", "repro/internal/sim.scaleTrial", "main.runScale"}, "clock"},
		{"malloc charged to the layer that asked", []string{"runtime.mallocgc", "runtime.growslice", "repro/internal/netsim.(*Network).send", "repro/internal/server.(*session).sendOne"}, "netsim"},
		{"map hash under a layer", []string{"runtime.aeshashbody", "runtime.mapaccess2_faststr", "repro/internal/lease.(*Table).Touch", "repro/internal/server.(*Server).onRenew"}, "lease"},
		{"gc assist inside an allocation stays with the layer", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mpeg.Generate"}, "mpeg"},
		{"generic method", []string{"repro/internal/sweep.RunOpts[...].func1", "runtime.goexit"}, "harness"},
		{"sim is harness", []string{"repro/internal/sim.(*viewerSet).harvest"}, "harness"},
		{"unlisted repo package is harness", []string{"repro/internal/congress.(*Directory).onPacket", "repro/internal/netsim.(*Network).deliver"}, "harness"},
		{"the benchmark itself", []string{"main.(*tracedEndpoint).Send", "repro/internal/transport.(*muxChannel).Send"}, "harness"},
		{"closure in a layer", []string{"repro/internal/gcs.(*Process).heartbeatTick.func1", "repro/internal/clock.(*Periodic).tick"}, "gcs"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, layerGC},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.gcenable.gowrap1"}, layerGC},
		{"scheduler idle", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, layerOther},
		{"socket read below no repo frame", []string{"syscall.Syscall6", "net.(*UDPConn).ReadFromUDP"}, layerOther},
		{"socket write under transport", []string{"syscall.Syscall6", "net.(*UDPConn).WriteToUDP", "repro/internal/transport.(*UDPEndpoint).Send", "repro/internal/gcs.(*Process).Send"}, "transport"},
		{"empty stack", nil, layerOther},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("%s: charged to %q, want %q", c.name, got, c.want)
		}
	}
}

var sink [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
}

// TestParseRealProfile round-trips a profile the runtime wrote through the
// reader: sample types, values and symbolised stacks must come out.
func TestParseRealProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old; sink = nil }()
	allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := gunzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var mine int64
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if fn == "repro/benchmark.allocateForProfile" {
				mine += s.values[idx]
				break
			}
		}
	}
	if mine < 64<<20 {
		t.Errorf("allocateForProfile is charged %d bytes in the parsed profile, allocated %d", mine, 64<<20)
	}
	per, err := p.attribute("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if per["harness"] < 64<<20 {
		t.Errorf("attribution charges harness %v bytes, allocated %d", per["harness"], 64<<20)
	}
}
