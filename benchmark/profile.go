package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// profiler captures, in a traced child, a CPU profile of the timed section
// and an allocation profile on either side of it (the allocs profile is
// cumulative since process start; the parent subtracts).
type profiler struct {
	dir, workload string
	cpu           *os.File
	firstErr      error
}

func profilePath(dir, workload, kind string) string {
	return filepath.Join(dir, workload+"."+kind+".pb.gz")
}

func newProfiler(o *options) (*profiler, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	return &profiler{dir: o.outDir, workload: o.workload}, nil
}

func (p *profiler) keep(err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *profiler) err() error { return p.firstErr }

func (p *profiler) writeAllocs(kind string) {
	f, err := os.Create(profilePath(p.dir, p.workload, kind))
	if err != nil {
		p.keep(err)
		return
	}
	runtime.GC() // the profile is as of the last completed collection
	p.keep(pprof.Lookup("allocs").WriteTo(f, 0))
	p.keep(f.Close())
}

func (p *profiler) start() {
	p.writeAllocs("allocs0")
	f, err := os.Create(profilePath(p.dir, p.workload, "cpu"))
	if err != nil {
		p.keep(err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		p.keep(err)
		p.keep(f.Close())
		return
	}
	p.cpu = f
}

func (p *profiler) stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		p.keep(p.cpu.Close())
	}
	p.writeAllocs("allocs1")
}

// attributeProfiles reads the traced child's profiles and renders section B
// of the per-layer metrics: cpu_s.<layer> and alloc_mb.<layer>. Every sample
// lands in exactly one layer, so the layers sum to the profile's own total
// by construction; what can differ is how much of the section the profile
// saw, and profile.cpu_coverage reports that against cpuS, the child's
// getrusage CPU time over the profiled section (about 1 on the simulator,
// about 0.85 on sockets, where time in short system calls is under-sampled).
func attributeProfiles(o *options, cpuS float64) (map[string]float64, error) {
	values := map[string]float64{}

	cpu, err := readProfile(profilePath(o.outDir, o.workload, "cpu"))
	if err != nil {
		return nil, err
	}
	perCPU, err := cpu.attribute("cpu")
	if err != nil {
		return nil, err
	}
	var sum float64
	for layer, ns := range perCPU {
		values["cpu_s."+layer] = ns / 1e9
		sum += ns / 1e9
	}
	if cpuS > 0 {
		values["profile.cpu_coverage"] = sum / cpuS
	}

	var before, after map[string]float64
	for i, kind := range []string{"allocs0", "allocs1"} {
		p, err := readProfile(profilePath(o.outDir, o.workload, kind))
		if err != nil {
			return nil, err
		}
		per, err := p.attribute("alloc_space")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			before = per
		} else {
			after = per
		}
	}
	for layer, bytes := range after {
		if d := bytes - before[layer]; d > 0 {
			values["alloc_mb."+layer] = d / 1e6
		}
	}
	// The collector's own goroutines allocate next to nothing; fold them
	// into other so the alloc columns are layers + other.
	values["alloc_mb."+layerOther] += values["alloc_mb."+layerGC]
	delete(values, "alloc_mb."+layerGC)
	return values, nil
}

// printAttribution writes the attribution table for a human.
func printAttribution(w io.Writer, workload string, vals map[string]float64) {
	type row struct {
		layer    string
		cpu, mem float64
	}
	var rows []row
	var cpuTotal, memTotal float64
	for _, l := range append(append([]string(nil), layers...), layerGC, layerOther) {
		r := row{l, vals["cpu_s."+l], vals["alloc_mb."+l]}
		cpuTotal += r.cpu
		memTotal += r.mem
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cpu > rows[j].cpu })
	share := func(v, total float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * v / total
	}
	fmt.Fprintf(w, "attribution %s (traced run; trace_overhead_pct %.1f, profile.cpu_coverage %.2f)\n", workload, vals["trace_overhead_pct"], vals["profile.cpu_coverage"])
	fmt.Fprintf(w, "  %-14s %9s %6s %10s %6s\n", "layer", "cpu_s", "%", "alloc_mb", "%")
	for _, r := range rows {
		if r.cpu == 0 && r.mem == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %9.3f %6.1f %10.1f %6.1f\n", r.layer, r.cpu, share(r.cpu, cpuTotal), r.mem, share(r.mem, memTotal))
	}
	fmt.Fprintf(w, "  %-14s %9.3f %6s %10.1f\n", "total", cpuTotal, "", memTotal)
}
