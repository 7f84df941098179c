package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sweep"
)

// BenchmarkSweepSpeedup measures what across-run parallelism buys: the
// wall-clock time of a 32-seed chaos sweep at workers=1 versus
// workers=GOMAXPROCS, through the exact chaos.Sweep path that
// `vodbench -chaos` and TestClusterMonkey use. The reported "speedup"
// metric is summed per-job CPU time over wall time (≈ the core count when
// the machine keeps up; ≈ 1 on a single-core box). ns/op is the headline:
// the whole 32-seed sweep, end to end.
// The gomaxprocs metric is reported alongside the speedup so a reader can
// tell a real parallelism regression from a hardware artifact, and the
// parallel leg is skipped outright on a single-core container — there it can
// only ever report ≈1.0×.
func BenchmarkSweepSpeedup(b *testing.B) {
	const seeds = 32
	procs := runtime.GOMAXPROCS(0)
	for legIdx, workers := range []int{1, procs} {
		parallelLeg := legIdx == 1
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if parallelLeg && procs == 1 {
				b.Skipf("GOMAXPROCS=1: the parallel leg cannot beat workers=1 on this hardware")
			}
			var sum sweep.Summary
			for i := 0; i < b.N; i++ {
				reports, s, err := chaos.Sweep(context.Background(), 1, seeds, workers, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != seeds {
					b.Fatalf("sweep returned %d reports, want %d", len(reports), seeds)
				}
				sum = s
			}
			b.ReportMetric(sum.Speedup(), "speedup")
			b.ReportMetric(float64(sum.Wall.Milliseconds()), "wall-ms/sweep")
			b.ReportMetric(float64(procs), "gomaxprocs")
		})
	}
}
