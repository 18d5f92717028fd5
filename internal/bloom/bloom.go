// Package bloom implements the fixed-size Bloom filters that back Nemo's
// Parallel Bloom Filter Groups (PBFGs).
//
// Each cache set gets one filter sized for a target false-positive rate and
// an object count; the filters for the same intra-SG offset across the SGs
// of an index group are queried together with a shared, precomputed probe
// set (the paper's "each hash function is computed once and the results are
// shared across all filters", §5.5).
//
// Probe positions come from enhanced double hashing (Dillinger & Manolios)
// in 64-bit arithmetic: two hashes of the fingerprint seed x_0 and y_0,
// x_{i+1} = x_i + y_i and y_{i+1} = y_i + i·φ, and probe i lands on bit
// ⌊x_i·m / 2^64⌋ of an m-bit filter (multiply-high range reduction). The
// increment is scaled by the odd constant φ (2^64 over the golden ratio) so
// that it reaches the high bits the reduction reads; without it the probes
// of a key are an arithmetic progression there, and two keys with nearly
// the same step share most of their bits. The sequence does not depend on
// m, so one ProbeSet serves filters of every width, and it reaches the sized
// rate at every width (TestFPRAtEveryWidth) where (h1 + i·h2) mod m, which
// at a power-of-two m draws from only m·m/2 probe patterns, ran up to 9×
// over it (3.5× at 256 bits holding 17 objects).
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"nemo/internal/hashing"
)

// ln2sq is (ln 2)^2, the constant in the optimal Bloom sizing formula.
const ln2sq = 0.4804530139182014

// SizeBits returns the optimal number of bits for n items at the target
// false-positive rate, rounded up to a multiple of 64 so filters serialize
// on word boundaries. n must be ≥ 1 and 0 < fpr < 1.
func SizeBits(n int, fpr float64) int {
	if n < 1 {
		n = 1
	}
	if fpr <= 0 || fpr >= 1 {
		panic(fmt.Sprintf("bloom: false-positive rate %v out of range (0,1)", fpr))
	}
	m := math.Ceil(-float64(n) * math.Log(fpr) / ln2sq)
	bits := int(m)
	if rem := bits % 64; rem != 0 {
		bits += 64 - rem
	}
	return bits
}

// NumHashes returns the optimal probe count for the target false-positive
// rate: k = log2(1/fpr), rounded to the nearest integer and at least 1.
func NumHashes(fpr float64) int {
	k := int(math.Round(-math.Log2(fpr)))
	if k < 1 {
		k = 1
	}
	return k
}

// BitsPerObject returns the memory cost in bits per object of a filter with
// the target false-positive rate (the 14.4 bits/object the paper reports for
// 0.1%).
func BitsPerObject(fpr float64) float64 {
	return -math.Log2(fpr) / math.Ln2
}

// Filter is a fixed-size Bloom filter, created by New or NewBits.
// Serialized filters are read in place (GroupMask over a bit-sliced page),
// never rebuilt. The zero value is unusable.
type Filter struct {
	words []uint64
	mbits uint64
	k     int
}

// New returns an empty filter sized by SizeBits(n, fpr) with
// NumHashes(fpr) probes.
func New(n int, fpr float64) *Filter {
	return NewBits(SizeBits(n, fpr), NumHashes(fpr))
}

// NewBits returns an empty filter of mbits bits (a positive multiple of 64)
// with k probes.
func NewBits(mbits, k int) *Filter {
	return &Filter{words: make([]uint64, mbits/64), mbits: uint64(mbits), k: k}
}

// seeds returns the two hashes that start fp's probe sequence.
func seeds(fp uint64) (x, y uint64) {
	return hashing.SplitMix64(fp ^ 0x51afd7ed558ccd9b), hashing.SplitMix64(fp ^ 0xc4ceb9fe1a85ec53)
}

// phi scales the enhanced increment (see the package comment).
const phi = 0x9e3779b97f4a7c15

// at maps a probe hash onto an m-bit filter: the high word of h·m.
func at(h, m uint64) uint64 {
	hi, _ := bits.Mul64(h, m)
	return hi
}

// Add inserts a fingerprint.
func (f *Filter) Add(fp uint64) {
	x, y := seeds(fp)
	for i, d := 0, uint64(0); i < f.k; i, d = i+1, d+phi {
		pos := at(x, f.mbits)
		f.words[pos>>6] |= 1 << (pos & 63)
		x, y = x+y, y+d
	}
}

// Test reports whether fp may have been added (with the configured
// false-positive probability) or definitely has not (false).
func (f *Filter) Test(fp uint64) bool {
	x, y := seeds(fp)
	for i, d := 0, uint64(0); i < f.k; i, d = i+1, d+phi {
		pos := at(x, f.mbits)
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
		x, y = x+y, y+d
	}
	return true
}

// Reset clears all bits, returning the filter to its empty state.
func (f *Filter) Reset() {
	clear(f.words)
}

// Resize clears the filter and gives it a width of mbits bits: a positive
// multiple of 64 no wider than the filter was made.
func (f *Filter) Resize(mbits int) {
	f.words = f.words[:mbits/64]
	f.mbits = uint64(mbits)
	f.Reset()
}

// AppendBytes serializes the filter's bit array (little-endian words) onto
// dst and returns the extended slice. Geometry is not serialized; the reader
// must know the width and probe count, as Nemo's index groups record them.
func (f *Filter) AppendBytes(dst []byte) []byte {
	for _, w := range f.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// MaxGroupMembers is the widest PBFG a bit-sliced page supports: a row of m
// member bits starting at any bit of a byte must fit one 8-byte load.
const MaxGroupMembers = 57

// A bit-sliced PBFG page stores the filters of m member SGs row-major: row r
// (one per filter bit) holds bit r of every member's filter, packed at member
// granularity — member s's bit r is page bit r*m+s — so the page is m filters
// long, exactly as if they were laid end to end.

// row loads the 8 bytes at off, zero-extended at the page tail (only the last
// rows of a page with no slack after its m filters get there).
func row(page []byte, off uint64) uint64 {
	if off+8 <= uint64(len(page)) {
		return binary.LittleEndian.Uint64(page[off:])
	}
	var w uint64
	for i, b := range page[off:] {
		w |= uint64(b) << (8 * i)
	}
	return w
}

// GroupMask Bloom-tests all m members of a bit-sliced page of mbits-bit
// filters at once: bit s of the result is set iff it is set in live and
// member s's filter contains every probe position of ps. One row load per
// probe, k in all, with no early exit: the loads are independent, so their
// cache misses overlap, which measured faster than stopping at the first
// all-zero row. This is the hot path of a lookup: each hash is computed once
// and shared across the group's filters.
func GroupMask(page []byte, m, mbits int, ps *ProbeSet, live uint64) uint64 {
	mask := live & (1<<uint(m) - 1)
	for _, h := range ps.hs {
		bit := at(h, uint64(mbits)) * uint64(m)
		mask &= row(page, bit>>3) >> (bit & 7)
	}
	return mask
}

// MergeColumn ORs the serialized filter raw (AppendBytes layout) into member
// s's column of a bit-sliced page.
func MergeColumn(page []byte, m, s int, raw []byte) {
	for i, b := range raw {
		for ; b != 0; b &= b - 1 {
			bit := (i*8+bits.TrailingZeros8(b))*m + s
			page[bit>>3] |= 1 << (bit & 7)
		}
	}
}

// ExtractColumn is MergeColumn's inverse: it appends member s's filter, in
// AppendBytes layout, onto dst. nbytes is the serialized filter size.
func ExtractColumn(dst, page []byte, m, s, nbytes int) []byte {
	bit := s
	for i := 0; i < nbytes; i++ {
		var b byte
		for j := 0; j < 8; j, bit = j+1, bit+m {
			b |= page[bit>>3] >> (bit & 7) & 1 << j
		}
		dst = append(dst, b)
	}
	return dst
}

// ProbeSet holds one fingerprint's precomputed probe hashes, shared across
// all filters in a PBFG whatever their width: a filter maps each hash onto
// its own bits (at).
type ProbeSet struct {
	hs []uint64
}

// NewProbeSet computes the k probe hashes of fp.
func NewProbeSet(fp uint64, k int) *ProbeSet {
	ps := &ProbeSet{hs: make([]uint64, k)}
	ps.Reuse(fp)
	return ps
}

// Reuse recomputes the hashes in place for a new fingerprint, avoiding
// allocation on the lookup path.
func (ps *ProbeSet) Reuse(fp uint64) {
	x, y := seeds(fp)
	d := uint64(0)
	for i := range ps.hs {
		ps.hs[i] = x
		x, y, d = x+y, y+d, d+phi
	}
}

// TestFilter applies the probe set to a materialized filter with as many
// probes as the set holds.
func (ps *ProbeSet) TestFilter(f *Filter) bool {
	for _, h := range ps.hs {
		pos := at(h, f.mbits)
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}
