package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// This file is the benchmark's own input generator and reply verifier: keys,
// self-describing values, the seeded per-connection streams, and the version
// ledger that says which bytes a GET may legally return.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 sequence; it implements rand.Source64 so math/rand's
// Zipf sampler draws from the same seeded stream.
type rng struct{ s uint64 }

func (r *rng) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
func (r *rng) Int63() int64 { return int64(r.Uint64() >> 1) }
func (r *rng) Seed(s int64) { r.s = uint64(s) }

// intn returns a uniform draw in [0, n) (multiply-shift; the bias at these
// n is below 2^-40).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// streamSeed derives one connection's stream from (seed, workload,
// connection, purpose).
func streamSeed(seed int64, workload string, conn int, purpose string) uint64 {
	h := splitmix64(uint64(seed))
	for _, s := range []string{workload, purpose} {
		for i := 0; i < len(s); i++ {
			h = splitmix64(h ^ uint64(s[i]))
		}
		h = splitmix64(h ^ 0xff)
	}
	return splitmix64(h ^ uint64(conn))
}

// keyShape maps dense key ids onto key bytes and value sizes. Fixed-shape
// workloads have one segment; twitter_mix has one per Table 5 cluster, ids
// laid out cluster after cluster.
type keyShape struct {
	segs []keySeg
	keys int
}

type keySeg struct {
	first, n  int // dense id range [first, first+n)
	keySize   int
	valueMean int
	valueStd  int // 0: every value is valueMean bytes
}

func fixedShape(keys, keySize, valueSize int) *keyShape {
	return &keyShape{segs: []keySeg{{0, keys, keySize, valueSize, 0}}, keys: keys}
}

// twitterShape lays out the four clusters with equal working-set bytes,
// wssBytes in total; each cluster's key count is rounded down to a multiple
// of nConns so the ownership partitions are equal.
func twitterShape(wssBytes int64) *keyShape {
	s := &keyShape{}
	per := wssBytes / int64(len(table5))
	for _, c := range table5 {
		n := int(per/int64(c.KeySize+c.ValueMean)) / nConns * nConns
		if n < nConns {
			n = nConns
		}
		s.segs = append(s.segs, keySeg{s.keys, n, c.KeySize, c.ValueMean, c.ValueStd})
		s.keys += n
	}
	return s
}

func (s *keyShape) seg(id int) *keySeg {
	for i := range s.segs {
		if g := &s.segs[i]; id < g.first+g.n {
			return g
		}
	}
	panic("benchmark: key id out of range")
}

const hexDigits = "0123456789abcdef"

// appendKey appends id's key: 16 hex digits of the id, then id-derived
// lowercase filler up to the segment's key size (never below 16 bytes).
func (s *keyShape) appendKey(dst []byte, id int) []byte {
	size := s.seg(id).keySize
	v := uint64(id)
	for i := 0; i < 16; i++ {
		dst = append(dst, hexDigits[(v>>uint(60-4*i))&0xf])
	}
	fill := splitmix64(v ^ 0x6b65797366696c6c)
	for i := 16; i < size; i++ {
		dst = append(dst, 'a'+byte(fill>>(uint(i%8)*8))%26)
	}
	return dst
}

// valueSize is id's deterministic value length: fixed, or a clamped normal
// by Box-Muller over two id-derived uniforms. Never below valueHeader.
func (s *keyShape) valueSize(id int) int {
	g := s.seg(id)
	n := g.valueMean
	if g.valueStd > 0 {
		h1 := splitmix64(uint64(id) ^ 0x73697a6531)
		h2 := splitmix64(uint64(id) ^ 0x73697a6532)
		u1 := float64(h1%((1<<53)-1)+1) / float64(uint64(1)<<53)
		u2 := float64(h2%(1<<53)) / float64(uint64(1)<<53)
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		n = g.valueMean + int(z*float64(g.valueStd))
	}
	if n < valueHeader {
		n = valueHeader
	}
	if n > maxValue {
		n = maxValue
	}
	return n
}

// meanObjectBytes is the mean flash bytes of one stored object as the prefill
// sizing needs it (an estimate for clamped-normal shapes).
func (g *keySeg) meanObjectBytes() int {
	return g.keySize + g.valueMean + itemEnvelope + setEntryOverhead
}

// Values are key-id (8) . version (4) . crc32c (4) . payload, little endian.
// The CRC covers id, version and payload, so a value proves which key and
// which write it belongs to.
const valueHeader = 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadPool is the byte source payloads are cut from; which bytes depends
// on (id, version), so two versions of one key differ.
var payloadPool = func() []byte {
	p := make([]byte, 64<<10+maxValue)
	r := rng{s: 0x7061796c6f6164}
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], r.Uint64())
	}
	return p
}()

// appendValue appends the size-byte value of (id, version).
func appendValue(dst []byte, id int, version uint32, size int) []byte {
	start := len(dst)
	var hdr [valueHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(id))
	binary.LittleEndian.PutUint32(hdr[8:], version)
	dst = append(dst, hdr[:]...)
	off := int(splitmix64(uint64(id)<<20^uint64(version)) % (64 << 10))
	dst = append(dst, payloadPool[off:off+size-valueHeader]...)
	crc := crc32.Update(0, crcTable, dst[start:start+12])
	crc = crc32.Update(crc, crcTable, dst[start+valueHeader:])
	binary.LittleEndian.PutUint32(dst[start+12:], crc)
	return dst
}

// decodeValue splits a value into its claims; ok is false when the bytes do
// not carry a matching CRC (truncated, flipped, or not ours).
func decodeValue(v []byte) (id int, version uint32, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	crc := crc32.Update(0, crcTable, v[:12])
	crc = crc32.Update(crc, crcTable, v[valueHeader:])
	if crc != binary.LittleEndian.Uint32(v[12:]) {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint64(v)), binary.LittleEndian.Uint32(v[8:]), true
}

// ledger records, per key, the highest version sent and the highest version
// the program acknowledged. Only a key's owner (id % nConns) writes its
// entries, so "latest" is well defined; any connection reads them.
type ledger struct {
	sent  []atomic.Uint32
	acked []atomic.Uint32 // version | deletedBit
}

const deletedBit = 1 << 31

func newLedger(keys int) *ledger {
	return &ledger{sent: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

func (l *ledger) reset() {
	for i := range l.sent {
		l.sent[i].Store(0)
		l.acked[i].Store(0)
	}
}

// nextVersion is called by the owner before it sends a SET.
func (l *ledger) nextVersion(id int) uint32 { return l.sent[id].Add(1) }

// ackSet / ackDelete are called by the owner on STORED / DELETED.
func (l *ledger) ackSet(id int, version uint32) { l.acked[id].Store(version) }
func (l *ledger) ackDelete(id int)              { l.acked[id].Store(l.sent[id].Load() | deletedBit) }

// ackState is sampled when a GET is sent and judged against its reply.
func (l *ledger) ackState(id int) uint32 { return l.acked[id].Load() }

// verdict classifies one returned value.
type verdict uint8

const (
	hitOK verdict = iota
	hitStale
	hitResurrected
	hitWrong
)

// judge checks a VALUE's bytes for the key the client asked for. wrong bytes
// — a CRC mismatch, another key's id, or a version never sent for this key —
// are a failed operation; an older-than-acknowledged version or a hit after
// an acknowledged delete is only counted.
func (l *ledger) judge(want int, ackAtSend uint32, value []byte) verdict {
	id, version, ok := decodeValue(value)
	if !ok || id != want || version == 0 || version > l.sent[want].Load() {
		return hitWrong
	}
	acked := ackAtSend &^ deletedBit
	switch {
	case ackAtSend&deletedBit != 0 && version <= acked:
		return hitResurrected
	case version < acked:
		return hitStale
	}
	return hitOK
}

// newZipf is one cluster's popularity sampler over n ranks, drawing from src.
func newZipf(src *rng, alpha float64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(src), alpha, 1, uint64(n-1))
}
