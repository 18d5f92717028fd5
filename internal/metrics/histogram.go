// Package metrics provides the measurement primitives shared by every
// experiment: log-bucketed latency histograms (p50/p99/p9999), small-integer
// CDFs (objects-per-set-write distributions), windowed ratio trackers (miss
// ratio, passive-migration fraction), and (x, y) series for the figures.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	subBucketBits  = 4 // 16 linear sub-buckets per power of two
	subBuckets     = 1 << subBucketBits
	histogramSlots = 64 * subBuckets
)

// Histogram is a log-bucketed histogram of non-negative durations with ~6%
// relative error per bucket, suitable for tail-latency percentiles. The zero
// value is ready to use. Histogram is not safe for concurrent use.
type Histogram struct {
	counts [histogramSlots]uint64
	total  uint64
	sum    float64
	max    time.Duration
	min    time.Duration
}

func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, ≥ subBucketBits
	sub := int((uint64(v) >> (uint(exp) - subBucketBits)) & (subBuckets - 1))
	return (exp-subBucketBits+1)*subBuckets + sub
}

// bucketValue returns a representative (upper-edge) value for slot i.
func bucketValue(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBucketBits - 1
	sub := i % subBuckets
	base := int64(1) << uint(exp)
	return base + int64(sub+1)*(base>>subBucketBits) - 1
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.counts[bucketIndex(int64(d))]++
	h.total++
	h.sum += float64(d)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1). Empty
// histograms return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if time.Duration(v) > h.max {
				return h.max
			}
			return time.Duration(v)
		}
	}
	return h.max
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears the histogram to its empty state.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot summarizes the common percentiles used throughout the paper.
type Snapshot struct {
	Count                 uint64
	Mean                  time.Duration
	P50, P99, P9999, Pmax time.Duration
}

// Snapshot returns the standard percentile summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P9999: h.Quantile(0.9999),
		Pmax:  h.max,
	}
}

// String renders the snapshot compactly, e.g. for progress logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p9999=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P9999, s.Pmax)
}
