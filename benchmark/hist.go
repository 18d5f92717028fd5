package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 128 buckets per
// power of two, so a reported percentile is within 1/128 (< 1%) of the
// sample it stands for. Recording allocates nothing.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (about 18 minutes) have their own bucket.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits // >= 0
	b := (exp+1)*histSub + int(ns>>uint(exp))&(histSub-1)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histUpper is the largest value bucket b holds.
func histUpper(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	exp := b/histSub - 1
	return (uint64(histSub+b%histSub)+1)<<uint(exp) - 1
}

func (h *hist) record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (0 with no samples).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			if u := histUpper(b); u < h.max {
				return float64(u)
			}
			return float64(h.max)
		}
	}
	return float64(h.max)
}

// median of a small sample (0 when empty); the input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
