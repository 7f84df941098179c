// Package metrics provides the time-series collection the experiment
// harness uses to regenerate the paper's figures: each figure is one or
// more named series sampled on the simulation clock.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// Series is a named time series: (elapsed time, value) samples kept
// sorted by time. The sampler appends in clock order, so Add is O(1) in
// the common case; an out-of-order sample is insert-sorted to preserve
// the invariant the binary-search accessors rely on.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Grow makes room for n more samples, so a sampler that knows its run length
// up front appends without reallocating.
func (s *Series) Grow(n int) {
	s.Times = slices.Grow(s.Times, n)
	s.Values = slices.Grow(s.Values, n)
}

// Add inserts a sample, keeping Times sorted.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Times); n == 0 || s.Times[n-1] <= t {
		s.Times = append(s.Times, t)
		s.Values = append(s.Values, v)
		return
	}
	i := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t })
	s.Times = append(s.Times, 0)
	s.Values = append(s.Values, 0)
	copy(s.Times[i+1:], s.Times[i:])
	copy(s.Values[i+1:], s.Values[i:])
	s.Times[i] = t
	s.Values[i] = v
}

// searchAfter returns the index of the first sample with time > t.
func (s *Series) searchAfter(t time.Duration) int {
	return sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t })
}

// searchAtOrAfter returns the index of the first sample with time ≥ t.
func (s *Series) searchAtOrAfter(t time.Duration) int {
	return sort.Search(len(s.Times), func(i int) bool { return s.Times[i] >= t })
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Last returns the final value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// At returns the value of the latest sample at or before t (0 if none).
func (s *Series) At(t time.Duration) float64 {
	i := s.searchAfter(t)
	if i == 0 {
		return 0
	}
	return s.Values[i-1]
}

// Max returns the largest value (0 for an empty series).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Min returns the smallest value (0 for an empty series).
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// MeanBetween averages the samples with from ≤ t < to; 0 if none.
func (s *Series) MeanBetween(from, to time.Duration) float64 {
	lo, hi := s.searchAtOrAfter(from), s.searchAtOrAfter(to)
	if lo >= hi {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// MinBetween returns the smallest sample with from ≤ t < to (0 if none).
func (s *Series) MinBetween(from, to time.Duration) float64 {
	lo, hi := s.searchAtOrAfter(from), s.searchAtOrAfter(to)
	if lo >= hi {
		return 0
	}
	min := math.Inf(1)
	for _, v := range s.Values[lo:hi] {
		if v < min {
			min = v
		}
	}
	return min
}

// MaxBetween returns the largest sample with from ≤ t < to (0 if none).
func (s *Series) MaxBetween(from, to time.Duration) float64 {
	lo, hi := s.searchAtOrAfter(from), s.searchAtOrAfter(to)
	if lo >= hi {
		return 0
	}
	max := math.Inf(-1)
	for _, v := range s.Values[lo:hi] {
		if v > max {
			max = v
		}
	}
	return max
}

// Delta returns Last − At(from): the growth of a cumulative series after
// the given instant.
func (s *Series) Delta(from time.Duration) float64 { return s.Last() - s.At(from) }

// WriteTSV writes "seconds<TAB>value" rows — the format vodbench prints so
// each figure can be re-plotted.
func (s *Series) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", s.Name); err != nil {
		return err
	}
	for i := range s.Times {
		if _, err := fmt.Fprintf(w, "%.2f\t%g\n", s.Times[i].Seconds(), s.Values[i]); err != nil {
			return err
		}
	}
	return nil
}
