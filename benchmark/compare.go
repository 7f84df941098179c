package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare a.jsonl b.jsonl: the tool for the repeatability criterion and
// for later A/B issues. Both files hold records written with -record, ten
// or so seeds per workload. For every workload (each in its own rows, never
// combined) and every end-to-end metric it prints both medians, the change
// from a to b in the direction that is worse, the wider of the two
// run-to-run spreads, and a verdict against the metric's own bound:
//
//	ok          b's median is not worse than a's by more than the bound
//	regressed   it is
//	unresolved  the spread (interquartile range over median) is wider than
//	            the bound, so the comparison cannot say either
//
// Host time (wall_s, cpu_s, peak_rss_mb of the untraced child) follows as
// "info" rows without a verdict.
//
// Simulated statistics must agree exactly: for every (workload, seed) that
// appears in both files the sim_digest is compared. Records of one workload
// that differ in size (seconds, viewers, probe batches) are refused.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		if n == 1 {
			return data[0], data[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	spec, err := loadBenchmarkJSON()
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	if err := sameSizes(append(append([]record(nil), a...), b...)); err != nil {
		return false, err
	}
	return compareRecords(w, spec, a, b), nil
}

// sameSizes refuses records of one workload that ran at different sizes:
// their totals do not compare.
func sameSizes(recs []record) error {
	sizes := map[string]size{}
	for _, r := range recs {
		if first, ok := sizes[r.Workload]; !ok {
			sizes[r.Workload] = r.Size
		} else if r.Size != first {
			return fmt.Errorf("%s: records of different sizes (%+v and %+v, seed %d) do not compare", r.Workload, first, r.Size, r.Seed)
		}
	}
	return nil
}

func compareRecords(w io.Writer, spec benchmarkJSON, a, b []record) (regressed bool) {
	collect := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload != workload {
				continue
			}
			if m, ok := r.EndToEnd[metric]; ok {
				xs = append(xs, m.Value)
			} else if m, ok := r.HostTime[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian a\tmedian b\tworse by\tspread\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / math.Abs(ma)
				if m.Better == higher {
					worse = -worse
				}
			}
			sp := math.Max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			// setup_s is judged on its medians alone (the driver's rule):
			// a set-up is short, so its spread is wide by nature.
			case sp > m.Bound && m.Name != "setup_s":
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, len(xa), len(xb), ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
		// Host time has no bound (it does not repeat within one on a shared
		// host); the rows are for reading, the verdict on a gain is the
		// metrics guide's paired-run rule.
		for _, name := range []string{"wall_s", "cpu_s", "peak_rss_mb"} {
			xa, xb := collect(a, wl.Name, name), collect(b, wl.Name, name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t-\tinfo\n",
				wl.Name, name, len(xa), len(xb), ma, mb, 100*(mb-ma)/ma, 100*math.Max(spread(xa), spread(xb)))
		}
	}
	tw.Flush()

	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	for _, r := range a {
		if r.Digest != "" {
			digests[key{r.Workload, r.Seed}] = r.Digest
		}
	}
	same, differ := 0, 0
	for _, r := range b {
		want, ok := digests[key{r.Workload, r.Seed}]
		if !ok || r.Digest == "" {
			continue
		}
		if want == r.Digest {
			same++
		} else {
			differ++
			fmt.Fprintf(w, "sim_digest DIFFERS: %s seed %d: %s vs %s\n", r.Workload, r.Seed, want, r.Digest)
		}
	}
	fmt.Fprintf(w, "sim_digest: %d (workload, seed) pairs equal, %d differ\n", same, differ)
	return regressed
}
