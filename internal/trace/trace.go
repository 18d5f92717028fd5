// Package trace generates the workloads of the paper's evaluation: Zipfian
// key-value request streams parameterized like the four Twitter cache
// clusters of Table 5, the normal-size synthetic insert stream of Figure 8,
// and a proportional interleave of multiple clusters over disjoint key
// spaces (§5.1 "Benchmarks").
//
// Production Twitter traces are not redistributable, so this package is the
// documented substitution: the evaluation depends on access skew (Zipf α),
// object sizes, and working-set pressure, which are exactly the parameters
// the paper reports and this generator reproduces deterministically.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"nemo/internal/hashing"
)

// Kind discriminates the operation types of a mixed workload.
type Kind uint8

const (
	// KindGet is a lookup whose demand-fill value (on miss) is Value. The
	// zero value, so plain GET streams need no initialization.
	KindGet Kind = iota
	// KindSet is an explicit write of Value (no preceding lookup).
	KindSet
	// KindDelete invalidates Key; Value is empty.
	KindDelete
)

// Request is one cache operation: by default a GET for Key whose demand-fill
// value (on miss) is Value; mixed streams (see Mixed) also emit explicit SET
// and DELETE operations. Buffers are owned by the stream and reused across
// calls.
type Request struct {
	Op    Kind
	Key   []byte
	Value []byte
}

// Stream produces an endless request sequence.
type Stream interface {
	// Next fills req with the next request, reusing its buffers.
	Next(req *Request)
}

// ClusterConfig describes one Twitter-like cluster (Table 5, after the
// paper's 2×/3× object-size downscaling of clusters 14 and 29).
type ClusterConfig struct {
	Name      string
	KeySize   int     // bytes per key
	ValueMean int     // mean value size in bytes
	ValueStd  int     // std-dev of value size (clamped normal)
	Keys      uint64  // key-space size (working set ≈ Keys × object size)
	ZipfAlpha float64 // Zipf skew; must be > 1 for math/rand's sampler
	Seed      int64
}

// ObjectMean returns the mean object (key+value) size in bytes.
func (c ClusterConfig) ObjectMean() int { return c.KeySize + c.ValueMean }

// Clusters are the four Table 5 traces with value sizes downscaled per §5.1
// (cluster 14 by 2×, cluster 29 by 3×; 34 and 52 unchanged), giving the
// paper's ≈246 B average object. Key-space sizes here are placeholders that
// Scaled adjusts to the experiment's cache size.
var Clusters = []ClusterConfig{
	{Name: "cluster14", KeySize: 96, ValueMean: 207, ValueStd: 100, Keys: 1 << 20, ZipfAlpha: 1.2959, Seed: 14},
	{Name: "cluster29", KeySize: 36, ValueMean: 266, ValueStd: 120, Keys: 1 << 20, ZipfAlpha: 1.2323, Seed: 29},
	{Name: "cluster34", KeySize: 33, ValueMean: 322, ValueStd: 150, Keys: 1 << 20, ZipfAlpha: 1.1401, Seed: 34},
	{Name: "cluster52", KeySize: 20, ValueMean: 273, ValueStd: 130, Keys: 1 << 20, ZipfAlpha: 1.2117, Seed: 52},
}

// Scaled returns a copy of c with the key space resized so the cluster's
// working set is approximately wssBytes.
func (c ClusterConfig) Scaled(wssBytes int64) ClusterConfig {
	keys := uint64(wssBytes / int64(c.ObjectMean()))
	if keys < 16 {
		keys = 16
	}
	c.Keys = keys
	return c
}

// ZipfStream generates GET requests with Zipf-distributed key popularity.
// Key identities are decorrelated from popularity rank by a splitmix
// permutation so set placement is not rank-correlated.
type ZipfStream struct {
	cfg  ClusterConfig
	zipf *rand.Zipf
	salt uint64
}

// NewZipf returns a deterministic stream for the cluster configuration.
func NewZipf(cfg ClusterConfig) *ZipfStream {
	if cfg.ZipfAlpha <= 1 {
		cfg.ZipfAlpha = 1.0001
	}
	if cfg.Keys < 1 {
		cfg.Keys = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	return &ZipfStream{
		cfg:  cfg,
		zipf: rand.NewZipf(r, cfg.ZipfAlpha, 1, cfg.Keys-1),
		salt: hashing.SplitMix64(uint64(cfg.Seed) ^ 0x746f7274696c6c61),
	}
}

// Next fills req with the next request.
func (z *ZipfStream) Next(req *Request) {
	req.Op = KindGet
	rank := z.zipf.Uint64()
	id := hashing.SplitMix64(rank ^ z.salt)
	FillKey(req, z.cfg.KeySize, id, z.salt)
	size := ValueSize(id, z.cfg.ValueMean, z.cfg.ValueStd, 1, maxValue)
	FillValue(req, size, id)
}

const maxValue = 1 << 11 // values are clamped well under a 4 KB set

// FillKey writes a deterministic key of exactly size bytes for object id
// into req.Key (reusing its buffer): 16 hex digits of id then salt-derived
// filler, so keys are unique per id and reproducible.
func FillKey(req *Request, size int, id, salt uint64) {
	if size < 16 {
		size = 16
	}
	if cap(req.Key) < size {
		req.Key = make([]byte, size)
	}
	req.Key = req.Key[:size]
	const hexdigits = "0123456789abcdef"
	v := id
	for i := 0; i < 16; i++ {
		req.Key[i] = hexdigits[v&0xf]
		v >>= 4
	}
	fill := hashing.SplitMix64(id ^ salt)
	for i := 16; i < size; i++ {
		req.Key[i] = 'a' + byte(fill>>(uint(i%8)*8))%26
	}
}

// ValueSize returns a deterministic clamped-normal size for object id.
func ValueSize(id uint64, mean, std, min, max int) int {
	if std <= 0 {
		return clampInt(mean, min, max)
	}
	// Box–Muller from two deterministic uniforms in (0,1).
	u1 := float64(hashing.Derive(id, 11)%((1<<53)-1)+1) / float64(uint64(1)<<53)
	u2 := float64(hashing.Derive(id, 12)%(1<<53)) / float64(uint64(1)<<53)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return clampInt(mean+int(z*float64(std)), min, max)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FillValue writes a deterministic payload of exactly size bytes derived
// from id into req.Value (reusing its buffer). Payload bytes are verifiable:
// filling a second request with the same id reproduces them.
func FillValue(req *Request, size int, id uint64) {
	if cap(req.Value) < size {
		req.Value = make([]byte, size)
	}
	req.Value = req.Value[:size]
	fillPayload(req.Value, id)
}

func fillPayload(dst []byte, id uint64) {
	state := hashing.SplitMix64(id ^ 0x76616c7565736565)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		state = hashing.SplitMix64(state)
		dst[i] = byte(state)
		dst[i+1] = byte(state >> 8)
		dst[i+2] = byte(state >> 16)
		dst[i+3] = byte(state >> 24)
		dst[i+4] = byte(state >> 32)
		dst[i+5] = byte(state >> 40)
		dst[i+6] = byte(state >> 48)
		dst[i+7] = byte(state >> 56)
	}
	state = hashing.SplitMix64(state)
	for j := 0; i < len(dst); i, j = i+1, j+8 {
		dst[i] = byte(state >> uint(j))
	}
}

// Interleaved merges several streams, drawing from each with probability
// proportional to its weight (the paper interleaves the four clusters
// proportionally to avoid single-workload phases).
type Interleaved struct {
	streams []Stream
	cum     []float64
	rng     *rand.Rand
}

// NewInterleaved builds a proportional interleave. weights must be positive
// and match streams in length.
func NewInterleaved(streams []Stream, weights []float64, seed int64) (*Interleaved, error) {
	if len(streams) == 0 || len(streams) != len(weights) {
		return nil, fmt.Errorf("trace: need matching non-empty streams and weights")
	}
	var total float64
	cum := make([]float64, len(weights))
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("trace: weight %d is not positive", i)
		}
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Interleaved{streams: streams, cum: cum, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws a stream by weight and forwards to it.
func (m *Interleaved) Next(req *Request) {
	u := m.rng.Float64()
	for i, c := range m.cum {
		if u <= c {
			m.streams[i].Next(req)
			return
		}
	}
	m.streams[len(m.streams)-1].Next(req)
}

// Mixed rewrites a fraction of an inner stream's requests into explicit SET
// and DELETE operations, turning a pure GET trace into the mixed workload a
// production cache service actually receives (writes from the backing store,
// invalidations from upstream mutations). Key popularity and sizes are the
// inner stream's; only the op kind changes, drawn deterministically per
// request, so a Mixed stream is as reproducible as its inner stream.
type Mixed struct {
	inner  Stream
	setCut float64 // P(op = SET)
	delCut float64 // setCut + P(op = DELETE)
	rng    *rand.Rand
}

// NewMixed wraps inner so each request is a SET with probability setFrac, a
// DELETE with probability delFrac, and a GET otherwise.
func NewMixed(inner Stream, setFrac, delFrac float64, seed int64) (*Mixed, error) {
	if setFrac < 0 || delFrac < 0 || setFrac+delFrac > 1 {
		return nil, fmt.Errorf("trace: op fractions set=%v del=%v invalid", setFrac, delFrac)
	}
	return &Mixed{
		inner:  inner,
		setCut: setFrac,
		delCut: setFrac + delFrac,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Next draws the inner request and stamps its op kind.
func (m *Mixed) Next(req *Request) {
	m.inner.Next(req)
	switch u := m.rng.Float64(); {
	case u < m.setCut:
		req.Op = KindSet
	case u < m.delCut:
		req.Op = KindDelete
		req.Value = req.Value[:0] // deletions carry no payload
	default:
		req.Op = KindGet
	}
}

// SyntheticInserts is the Figure 8 workload: a stream of unique keys with
// normal-distributed object sizes (mean 250 B, std 200 B in the paper).
type SyntheticInserts struct {
	KeySize   int
	ValueMean int
	ValueStd  int
	next      uint64
	salt      uint64
}

// NewSyntheticInserts returns the synthetic insert stream.
func NewSyntheticInserts(keySize, valueMean, valueStd int, seed int64) *SyntheticInserts {
	return &SyntheticInserts{
		KeySize:   keySize,
		ValueMean: valueMean,
		ValueStd:  valueStd,
		salt:      hashing.SplitMix64(uint64(seed) ^ 0x73796e7468657469),
	}
}

// Next produces the next unique-key insert.
func (s *SyntheticInserts) Next(req *Request) {
	req.Op = KindGet
	s.next++
	id := hashing.SplitMix64(s.next ^ s.salt)
	FillKey(req, s.KeySize, id, s.salt)
	size := ValueSize(id, s.ValueMean, s.ValueStd, 1, maxValue)
	FillValue(req, size, id)
}

// DefaultInterleaved builds the paper's default benchmark: the four Table 5
// clusters, each scaled to wssPerCluster bytes, interleaved equally.
func DefaultInterleaved(wssPerCluster int64, seed int64) (*Interleaved, error) {
	streams := make([]Stream, len(Clusters))
	weights := make([]float64, len(Clusters))
	for i, c := range Clusters {
		c.Seed += seed * 1000003
		streams[i] = NewZipf(c.Scaled(wssPerCluster))
		weights[i] = 1
	}
	return NewInterleaved(streams, weights, seed)
}
