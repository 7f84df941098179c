// Package metrics provides the time-series collection the experiment
// harness uses to regenerate the paper's figures: each figure is one or
// more named series sampled on the simulation clock.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// Series is a named time series on a regular grid: Values[i] was sampled at
// Start + i·Step. The harness samples with a clock.Every on the virtual
// clock, so every sample lands on the grid and no time column is stored.
type Series struct {
	Name   string
	Start  time.Duration // time of the first sample
	Step   time.Duration
	Values []float64
}

// NewSeries returns an empty series sampled every step (> 0).
func NewSeries(name string, step time.Duration) *Series { return &Series{Name: name, Step: step} }

// Grow makes room for n more samples, so a sampler that knows its run length
// up front appends without reallocating.
func (s *Series) Grow(n int) { s.Values = slices.Grow(s.Values, n) }

// Time returns the time of sample i.
func (s *Series) Time(i int) time.Duration { return s.Start + time.Duration(i)*s.Step }

// Add appends the sample taken at t. The first sample sets Start; every
// later one must fall on the next grid point, or Add panics. A nil series
// records nothing.
func (s *Series) Add(t time.Duration, v float64) {
	if s == nil {
		return
	}
	if n := len(s.Values); n == 0 {
		s.Start = t
	} else if want := s.Time(n); t != want {
		panic(fmt.Sprintf("metrics: %s: sample at %v is off the grid (next point %v)", s.Name, t, want))
	}
	s.Values = append(s.Values, v)
}

// searchAfter returns the index of the first sample with time > t.
func (s *Series) searchAfter(t time.Duration) int {
	if t < s.Start {
		return 0
	}
	return min(int((t-s.Start)/s.Step)+1, len(s.Values))
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

// WriteTSV writes "seconds<TAB>value" rows — the format vodbench prints so
// each figure can be re-plotted. Each row is what fmt's "%.2f\t%g\n" gives,
// framed in one buffer the rows share.
func (s *Series) WriteTSV(w io.Writer) error {
	row := append(append(append(make([]byte, 0, 64), "# "...), s.Name...), '\n')
	if _, err := w.Write(row); err != nil {
		return err
	}
	for i, v := range s.Values {
		row = strconv.AppendFloat(row[:0], s.Time(i).Seconds(), 'f', 2, 64)
		row = append(strconv.AppendFloat(append(row, '\t'), v, 'g', -1, 64), '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}
