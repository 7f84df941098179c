package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func sampleSeries() *Series {
	s := NewSeries("test", time.Second)
	s.Add(1*time.Second, 10)
	s.Add(2*time.Second, 30)
	s.Add(3*time.Second, 20)
	s.Add(4*time.Second, 40)
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := sampleSeries()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Last(); got != 40 {
		t.Fatalf("Last = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty", time.Second)
	if s.Last() != 0 || s.At(time.Second) != 0 {
		t.Fatal("empty series accessors must return 0")
	}
}

func TestSeriesAt(t *testing.T) {
	s := sampleSeries()
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{500 * time.Millisecond, 0}, // before first sample
		{1 * time.Second, 10},
		{1500 * time.Millisecond, 10},
		{2 * time.Second, 30},
		{10 * time.Second, 40},
	}
	for _, tt := range tests {
		if got := s.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	s := sampleSeries()
	var sb strings.Builder
	if err := s.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# test\n") {
		t.Fatalf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if lines[1] != "1.00\t10" {
		t.Fatalf("first row = %q", lines[1])
	}
}

// TestWriteTSVMatchesFprintf: every row is byte for byte what
// fmt.Fprintf(w, "%.2f\t%g\n", ...) writes, for the values whose formatting
// the two could disagree on — infinities, NaN, negative zero, the extremes
// and exponent forms — and a start and step off the hundredth.
func TestWriteTSVMatchesFprintf(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5e-7, 123456789, 1e21, -1e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	s := NewSeries("edge cases", 1234567*time.Microsecond)
	s.Start = 5 * time.Millisecond
	s.Values = values
	var want strings.Builder
	fmt.Fprintf(&want, "# %s\n", s.Name)
	for i, v := range values {
		fmt.Fprintf(&want, "%.2f\t%g\n", s.Time(i).Seconds(), v)
	}
	var got strings.Builder
	if err := s.WriteTSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteTSV wrote\n%s\nFprintf writes\n%s", got.String(), want.String())
	}
}

func TestNegativeValues(t *testing.T) {
	s := NewSeries("neg", time.Second)
	s.Add(time.Second, -5)
	s.Add(2*time.Second, -1)
	if s.At(time.Second) != -5 || s.Last() != -1 {
		t.Fatalf("negative values read back as %v, %v", s.At(time.Second), s.Last())
	}
}

// TestSeriesMatchesLinearScan checks the grid arithmetic of the accessors
// against a linear scan over explicit sample times: random starts that need
// not be multiples of the step, both steps the scenarios sample at, and
// queries on the grid, between points, before Start and past the end.
func TestSeriesMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		step := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}[trial%2]
		start := 1 + time.Duration(rng.Int63n(int64(5*time.Second)))
		n := rng.Intn(30)
		s := NewSeries("grid", step)
		times, vals := make([]time.Duration, n), make([]float64, n)
		for i := range times {
			times[i], vals[i] = start+time.Duration(i)*step, float64(rng.Intn(100)-50)
			s.Add(times[i], vals[i])
		}
		var queries []time.Duration
		for i := -3; i <= n+3; i++ {
			for _, off := range []time.Duration{0, 1, step / 2, step - 1} {
				queries = append(queries, start+time.Duration(i)*step+off)
			}
		}
		at := func(q time.Duration) (v float64) {
			for i, ts := range times {
				if ts <= q {
					v = vals[i]
				}
			}
			return v
		}
		for _, q := range queries {
			if got, want := s.At(q), at(q); got != want {
				t.Fatalf("start %v step %v: At(%v) = %v, want %v", start, step, q, got, want)
			}
		}
	}
}

// TestSeriesOffGridAddPanics: the accessors derive every sample's time from
// its index, so a sample anywhere but the next grid point is refused.
func TestSeriesOffGridAddPanics(t *testing.T) {
	const ms = time.Millisecond
	for name, at := range map[string]time.Duration{
		"between points": 250 * ms,
		"skipped point":  400 * ms,
		"repeat":         200 * ms,
		"before start":   0,
	} {
		s := NewSeries("grid", 100*ms)
		s.Add(100*ms, 1)
		s.Add(200*ms, 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add at %v accepted", name, at)
				}
			}()
			s.Add(at, 3)
		}()
	}
}

func TestSeriesBinarySearchBounds(t *testing.T) {
	s := NewSeries("bounds", time.Second)
	if s.At(time.Second) != 0 {
		t.Fatal("At on empty series != 0")
	}
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if got := s.At(0); got != 0 {
		t.Fatalf("At(first) = %v", got)
	}
	if got := s.At(-time.Second); got != 0 {
		t.Fatalf("At(before first) = %v, want 0", got)
	}
	if got := s.At(99 * time.Second); got != 99 {
		t.Fatalf("At(last) = %v", got)
	}
	if got := s.At(time.Hour); got != 99 {
		t.Fatalf("At(past end) = %v", got)
	}
}
