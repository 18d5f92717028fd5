package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// IntCDF tracks a distribution over small non-negative integers with an
// overflow bucket, matching the paper's "number of objects written to a set"
// CDFs (Figures 4 and 5, buckets 0..9 and "10+").
type IntCDF struct {
	counts []uint64 // counts[i] for value i; counts[len-1] is the overflow
	total  uint64
	sum    float64
}

// NewIntCDF returns a CDF over values 0..max with an overflow bucket for
// values > max.
func NewIntCDF(max int) *IntCDF {
	if max < 0 {
		max = 0
	}
	return &IntCDF{counts: make([]uint64, max+2)}
}

// Add records one observation of v (negative values count as 0).
func (c *IntCDF) Add(v int) {
	if v < 0 {
		v = 0
	}
	idx := v
	if idx >= len(c.counts)-1 {
		idx = len(c.counts) - 1
	}
	c.counts[idx]++
	c.total++
	c.sum += float64(v)
}

// Total returns the number of observations.
func (c *IntCDF) Total() uint64 { return c.total }

// Mean returns the mean of the recorded values (overflowed values contribute
// their true value, not the bucket cap).
func (c *IntCDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	return c.sum / float64(c.total)
}

// CDF returns the cumulative distribution: out[i] = P(value ≤ i), with the
// final element covering the overflow bucket (always 1 for non-empty data).
func (c *IntCDF) CDF() []float64 {
	out := make([]float64, len(c.counts))
	if c.total == 0 {
		return out
	}
	var run uint64
	for i, n := range c.counts {
		run += n
		out[i] = float64(run) / float64(c.total)
	}
	return out
}

// String renders the CDF as "≤0:12.3% ≤1:45.6% ... 10+:100%".
func (c *IntCDF) String() string {
	cdf := c.CDF()
	var b strings.Builder
	for i, p := range cdf {
		if i == len(cdf)-1 {
			fmt.Fprintf(&b, "%d+:%.1f%%", i, p*100)
		} else {
			fmt.Fprintf(&b, "≤%d:%.1f%% ", i, p*100)
		}
	}
	return b.String()
}

// Series is a named sequence of (x, y) samples, the output form of the
// figure experiments.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.X) }

// FillRateCDF summarizes a set of fill-rate observations (0..1) as a CDF
// evaluated at the given thresholds; used by the Figure 8 experiment.
func FillRateCDF(rates []float64, thresholds []float64) []float64 {
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	if len(sorted) == 0 {
		return out
	}
	for i, t := range thresholds {
		// count of rates ≤ t
		n := sort.SearchFloat64s(sorted, t+1e-12)
		out[i] = float64(n) / float64(len(sorted))
	}
	return out
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
