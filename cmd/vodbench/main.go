// Command vodbench regenerates every figure and table of the paper's
// evaluation (§6) from the deterministic simulation harness.
//
// Usage:
//
//	vodbench                  # everything: all figures and tables
//	vodbench -fig 4a          # one figure as TSV (seconds <TAB> value)
//	vodbench -fig all         # all figures
//	vodbench -table takeover  # one table
//	vodbench -table all       # all tables
//	vodbench -seed 7          # change the simulation seed
//	vodbench -chaos -runs 50  # run 50 seeded fault schedules, report invariants
//	vodbench -chaos -seed 53  # replay one schedule (e.g. a CI failure) exactly
//	vodbench -classes -runs 24 # run seeded overload trials, check class invariants
//	vodbench -parallel 4      # bound the sweep worker pool (default: all cores)
//
// Independent simulation runs — chaos seeds, table trials, the figure
// scenarios — fan out across all cores by default (internal/sweep).
// Parallelism is strictly across runs, never inside one, so every figure,
// table and chaos report is byte-identical at any -parallel setting; a
// failing chaos sweep ends with a sorted "failed seeds" list, each
// replayable exactly with -chaos -seed N.
//
// Figures: 4a skipped frames (LAN) · 4b late frames (LAN) · 4c software
// buffer occupancy (LAN) · 4d hardware buffer occupancy (LAN) · 5a skipped
// frames (WAN) · 5b overflow discards (WAN).
//
// Tables: flowctl (Figure 2 policy) · emergency (§4.1) · sync (§5.2
// overhead) · takeover · faults (vs Tiger, §7) · buffersweep ·
// emergencysweep · syncsweep · discard (ablations).
//
// One extra table is reachable by name only (not part of -table all, so
// the default outputs never change): `vodbench -table scale` runs the
// two-tier capacity table (DESIGN §12) — sharded movie groups plus leased
// viewers at 10×1,000, 25×4,000 and 50×10,000 servers×viewers. It is the
// most expensive table (about a minute on one core; the rows fan out
// across available cores).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runTo(os.Stdout, args) }

// profileTo starts CPU profiling into path (empty = no-op) and returns the
// stop function. Profiles cover the full run including the parallel sweeps,
// so a speed round starts from measurements instead of guesses.
func profileTo(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile dumps an allocation profile to path (empty = no-op).
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // settle accounting so the profile reflects live + cumulative allocs
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// runTo executes the CLI against an arbitrary writer; the output-
// equivalence tests capture it to prove -parallel never changes a byte.
func runTo(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("vodbench", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure to regenerate (4a 4b 4c 4d 5a 5b, or all)")
	table := fs.String("table", "", "table to regenerate (see package doc, or all)")
	list := fs.Bool("list", false, "list available figures and tables, then exit")
	seed := fs.Int64("seed", 1, "simulation seed")
	stats := fs.Bool("stats", false, "dump per-node observability counters for the LAN and WAN scenarios, then exit")
	chaosRun := fs.Bool("chaos", false, "execute seeded chaos schedules and check service invariants")
	classesRun := fs.Bool("classes", false, "execute seeded traffic-class overload trials and check the degrade-before-refuse invariants")
	runs := fs.Int("runs", 1, "with -chaos/-classes: number of consecutive seeds to run, starting at -seed")
	parallel := fs.Int("parallel", 0, "worker pool for independent simulation runs — chaos seeds, table trials, figure scenarios (0 = all cores, 1 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sim.SetParallelism(*parallel)

	stopProf, err := profileTo(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopProf()
	defer func() {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "vodbench:", err)
		}
	}()

	if *chaosRun {
		// Seeds fan out across the worker pool; reports stream in seed
		// order as a contiguous prefix finishes, so the output is
		// byte-identical to a sequential sweep.
		reports, sum, err := chaos.Sweep(context.Background(), *seed, *runs, *parallel, nil,
			func(rep *chaos.Report) { rep.Write(out) })
		if err != nil {
			return fmt.Errorf("chaos sweep: %w", err)
		}
		if *runs > 1 {
			fmt.Fprintf(out, "sweep: %s\n", sum)
		}
		if failed := chaos.FailedSeeds(reports); len(failed) > 0 {
			fmt.Fprintf(out, "failed seeds: %v\n", failed)
			return fmt.Errorf("%d of %d chaos schedules violated invariants (failed seeds %v)",
				len(failed), *runs, failed)
		}
		return nil
	}
	if *classesRun {
		reports, sum, err := chaos.SweepClasses(context.Background(), *seed, *runs, *parallel, nil,
			func(rep *chaos.ClassReport) { rep.Write(out) })
		if err != nil {
			return fmt.Errorf("class sweep: %w", err)
		}
		if *runs > 1 {
			fmt.Fprintf(out, "sweep: %s\n", sum)
		}
		if failed := chaos.FailedClassSeeds(reports); len(failed) > 0 {
			fmt.Fprintf(out, "failed seeds: %v\n", failed)
			return fmt.Errorf("%d of %d class trials violated invariants (failed seeds %v)",
				len(failed), *runs, failed)
		}
		return nil
	}
	if *list {
		fmt.Fprintln(out, "figures:", sim.FigureIDs())
		fmt.Fprintln(out, "tables: ", sim.TableIDs())
		return nil
	}
	if *stats {
		// The LAN and WAN scenarios are independent runs: execute them in
		// parallel, print in the fixed order.
		scs := []sim.Scenario{sim.LANScenario(*seed), sim.WANScenario(*seed)}
		results, err := sweep.Run(context.Background(), len(scs), *parallel,
			func(i int, _ int64) (*sim.Result, error) { return sim.Run(scs[i]), nil })
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Fprintf(out, "== %s: observability counters ==\n", res.Name)
			nodes := make([]string, 0, len(res.Obs))
			for id := range res.Obs {
				nodes = append(nodes, id)
			}
			sort.Strings(nodes)
			for _, id := range nodes {
				snap := res.Obs[id].Snapshot()
				names := make([]string, 0, len(snap.Counters))
				for name := range snap.Counters {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Fprintf(out, "%-12s %-28s %d\n", id, name, snap.Counters[name])
				}
				for _, ev := range snap.Events() {
					fmt.Fprintf(out, "%-12s event %-21s %s (%s)\n", id, ev.Kind, ev.Note, ev.At.Format("15:04:05.000"))
				}
			}
			fmt.Fprintln(out)
		}
		// Hot-path throughput, from the exact code path the
		// BenchmarkSimThroughput regression benchmark measures.
		tp := sim.MeasureThroughput(*seed)
		fmt.Fprintf(out, "== hot path: simulator throughput (LAN scenario, seed %d) ==\n", *seed)
		fmt.Fprintf(out, "%-24s %d\n", "delivered packets", tp.Packets)
		fmt.Fprintf(out, "%-24s %d\n", "delivered bytes", tp.Bytes)
		fmt.Fprintf(out, "%-24s %d\n", "heap allocs", tp.Allocs)
		fmt.Fprintf(out, "%-24s %d\n", "heap bytes", tp.AllocBytes)
		fmt.Fprintf(out, "%-24s %.2f\n", "allocs per packet", float64(tp.Allocs)/float64(tp.Packets))
		fmt.Fprintf(out, "%-24s %s\n", "wall time", tp.WallTime.Round(time.Millisecond))
		fmt.Fprintf(out, "%-24s %.0f\n", "packets/s (wall)", tp.PacketsPerSec())
		fmt.Fprintf(out, "%-24s %.0f\n", "sim-s per wall-s", tp.SpeedRatio())
		return nil
	}
	all := *fig == "" && *table == ""

	writeFig := func(s *metrics.Series, ann []sim.Annotation) error {
		for _, a := range ann {
			fmt.Fprintf(out, "# event %.1fs: %s\n", a.At.Seconds(), a.Label)
		}
		return s.WriteTSV(out)
	}

	if *fig == "all" || all {
		figs, anns := sim.Figures(*seed)
		for _, id := range sim.FigureIDs() {
			fmt.Fprintf(out, "== Figure %s ==\n", id)
			if err := writeFig(figs[id], anns[id]); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	} else if *fig != "" {
		s, ann, err := sim.Figure(*fig, *seed)
		if err != nil {
			return err
		}
		return writeFig(s, ann)
	}

	if *table == "all" || all {
		// Generate the tables in parallel (each table additionally fans its
		// own trials), then print in the canonical order.
		ids := sim.TableIDs()
		tables, err := sweep.Run(context.Background(), len(ids), *parallel,
			func(i int, _ int64) (sim.Table, error) { return sim.TableByID(ids[i], *seed) })
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Write(out); err != nil {
				return err
			}
		}
	} else if *table != "" {
		t, err := sim.TableByID(*table, *seed)
		if err != nil {
			return err
		}
		return t.Write(out)
	}
	return nil
}
