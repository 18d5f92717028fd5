package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	magic      = "NEMO1\x00\x00\x00"
	headerSize = 64
	// Version is the NEMO1 format version this code writes and the only one
	// it reads. There is no cross-version migration by design: an old
	// snapshot is throwaway, exactly like a corrupt one. Version 2 changed no
	// byte of the image: it marks the on-flash PBFG pages a sealed group's
	// zones hold as bit-sliced (bloom.GroupMask) — device state a version-1
	// checkpoint points at in the old filter-major arrangement.
	Version = 2

	sectionHdrSize = 12 // kind u32 | len u32 | crc32 u32
)

// Section kinds, in the exact order they must appear.
const (
	secConfig   = 1
	secMeta     = 2
	secFree     = 3
	secGroups   = 4
	secMemQ     = 5
	secICache   = 6
	secFlushLog = 7
	secFooter   = 8
)

// shardSections lists the per-shard section kinds in order.
var shardSections = [...]uint32{secMeta, secFree, secGroups, secMemQ, secICache, secFlushLog}

// writer accumulates little-endian primitives.
type writer struct{ b []byte }

func (w *writer) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int)     { w.u64(uint64(int64(v))) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}
func (w *writer) blob(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *writer) ints(s []int) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.i64(v)
	}
}

// reader consumes little-endian primitives with a sticky error: after the
// first defect every getter returns a zero value and the error survives to
// the caller's final check. Defects inside a CRC-valid section payload are
// ErrCorrupt — the bytes are intact, their content is not a valid encoding.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = ErrCorrupt
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i64() int     { return int(int64(r.u64())) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) boolean() bool {
	s := r.take(1)
	if s == nil {
		return false
	}
	switch s[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.err = ErrCorrupt
	return false
}

// count reads an element count and bounds it by the bytes remaining (min
// bytes per element), so corrupt counts can never drive huge allocations.
func (r *reader) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if min > 0 && n > (len(r.b)-r.off)/min {
		r.err = ErrCorrupt
		return 0
	}
	return n
}

// blob reads a length-prefixed byte slice (copied; nil when empty).
func (r *reader) blob() []byte {
	n := r.count(1)
	return append([]byte(nil), r.take(n)...)
}

// ints reads a length-prefixed []int (nil when empty).
func (r *reader) ints() []int {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// done reports the payload fully and cleanly consumed; anything else is the
// sticky error (or ErrCorrupt for slack bytes — canonical encodings leave
// none).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return ErrCorrupt
	}
	return nil
}

// Encode serializes f into a complete NEMO1 image. The encoding is
// canonical: Decode of the result yields a File that re-encodes to the
// identical bytes.
func Encode(f *File) []byte {
	w := &writer{b: make([]byte, headerSize)}
	appendSection(w, secConfig, encodeConfig(&f.Config))
	for i := range f.Shards {
		s := &f.Shards[i]
		appendSection(w, secMeta, encodeMeta(s))
		appendSection(w, secFree, encodeFree(s))
		appendSection(w, secGroups, encodeGroups(s))
		appendSection(w, secMemQ, encodeMemQ(s))
		appendSection(w, secICache, encodeICache(s))
		appendSection(w, secFlushLog, encodeFlushLog(s))
	}
	// Header, now that the total length (body + 16-byte footer section) is
	// known — the footer CRC covers the finalized header too.
	h := w.b[:headerSize]
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint32(h[12:], uint32(f.PageSize))
	binary.LittleEndian.PutUint32(h[16:], uint32(f.PagesPerZone))
	binary.LittleEndian.PutUint32(h[20:], uint32(f.Zones))
	binary.LittleEndian.PutUint64(h[24:], f.Boot)
	binary.LittleEndian.PutUint64(h[32:], f.Writes)
	binary.LittleEndian.PutUint32(h[40:], uint32(len(f.Shards)))
	binary.LittleEndian.PutUint64(h[44:], uint64(len(w.b)+sectionHdrSize+4))
	var footer writer
	footer.u32(crc32.ChecksumIEEE(w.b))
	appendSection(w, secFooter, footer.b)
	return w.b
}

func appendSection(w *writer, kind uint32, payload []byte) {
	w.u32(kind)
	w.u32(uint32(len(payload)))
	w.u32(crc32.ChecksumIEEE(payload))
	w.b = append(w.b, payload...)
}

func encodeConfig(c *ConfigStamp) []byte {
	var w writer
	w.i64(c.DataZones)
	w.i64(c.Shards)
	w.i64(c.ZoneOffset)
	w.i64(c.ZonesPerSG)
	w.i64(c.InMemSGs)
	w.i64(c.FlushThreshold)
	w.f64(c.RearFullRatio)
	w.i64(c.SGsPerIndexGroup)
	w.f64(c.BloomFPR)
	w.i64(c.TargetObjsPerSet)
	w.f64(c.CachedPBFGRatio)
	w.f64(c.HotTrackTailRatio)
	w.f64(c.CoolingWriteRatio)
	w.boolean(c.BufferedSGs)
	w.boolean(c.DelayedFlush)
	w.boolean(c.Writeback)
	return w.b
}

func decodeConfig(b []byte) (ConfigStamp, error) {
	r := &reader{b: b}
	c := ConfigStamp{
		DataZones:         r.i64(),
		Shards:            r.i64(),
		ZoneOffset:        r.i64(),
		ZonesPerSG:        r.i64(),
		InMemSGs:          r.i64(),
		FlushThreshold:    r.i64(),
		RearFullRatio:     r.f64(),
		SGsPerIndexGroup:  r.i64(),
		BloomFPR:          r.f64(),
		TargetObjsPerSet:  r.i64(),
		CachedPBFGRatio:   r.f64(),
		HotTrackTailRatio: r.f64(),
		CoolingWriteRatio: r.f64(),
		BufferedSGs:       r.boolean(),
		DelayedFlush:      r.boolean(),
		Writeback:         r.boolean(),
	}
	return c, r.done()
}

func encodeMeta(s *Shard) []byte {
	var w writer
	w.u64(s.NextSGID)
	w.i64(s.NextGroup)
	w.i64(s.SacCount)
	w.u64(s.BytesSinceCool)
	w.u64(s.ICLookups)
	w.u64(s.ICMisses)
	w.i64(s.ICDroppedUpTo)
	c := &s.Stats
	for _, v := range [...]uint64{c.Gets, c.Hits, c.Sets, c.Deletes,
		c.LogicalBytes, c.FlashBytesWritten, c.DeviceBytesWritten,
		c.FlashBytesRead, c.FlashReadOps, c.ReadErrors, c.WriteErrors,
		c.Evictions} {
		w.u64(v)
	}
	e := &s.Extra
	w.u64(e.SGsFlushed)
	w.f64(e.FillSum)
	for _, v := range [...]uint64{e.NewBytes, e.WriteBackBytes,
		e.WriteBackObjs, e.Sacrificed, e.DataBytesWritten,
		e.IndexBytesWritten, e.FalsePositiveReads, e.CoolingRuns,
		e.FlushRecordsDropped} {
		w.u64(v)
	}
	return w.b
}

func decodeMeta(b []byte, s *Shard) error {
	r := &reader{b: b}
	s.NextSGID = r.u64()
	s.NextGroup = r.i64()
	s.SacCount = r.i64()
	s.BytesSinceCool = r.u64()
	s.ICLookups = r.u64()
	s.ICMisses = r.u64()
	s.ICDroppedUpTo = r.i64()
	s.Stats = Counters{
		Gets: r.u64(), Hits: r.u64(), Sets: r.u64(), Deletes: r.u64(),
		LogicalBytes: r.u64(), FlashBytesWritten: r.u64(),
		DeviceBytesWritten: r.u64(), FlashBytesRead: r.u64(),
		FlashReadOps: r.u64(), ReadErrors: r.u64(), WriteErrors: r.u64(),
		Evictions: r.u64(),
	}
	s.Extra = Extra{SGsFlushed: r.u64(), FillSum: r.f64()}
	s.Extra.NewBytes = r.u64()
	s.Extra.WriteBackBytes = r.u64()
	s.Extra.WriteBackObjs = r.u64()
	s.Extra.Sacrificed = r.u64()
	s.Extra.DataBytesWritten = r.u64()
	s.Extra.IndexBytesWritten = r.u64()
	s.Extra.FalsePositiveReads = r.u64()
	s.Extra.CoolingRuns = r.u64()
	s.Extra.FlushRecordsDropped = r.u64()
	return r.done()
}

func encodeFree(s *Shard) []byte {
	var w writer
	w.ints(s.FreeDataZones)
	w.ints(s.FreeIndexZones)
	return w.b
}

func decodeFree(b []byte, s *Shard) error {
	r := &reader{b: b}
	s.FreeDataZones = r.ints()
	s.FreeIndexZones = r.ints()
	return r.done()
}

func encodeGroups(s *Shard) []byte {
	var w writer
	w.u32(uint32(len(s.Groups)))
	for gi := range s.Groups {
		g := &s.Groups[gi]
		w.i64(g.ID)
		w.boolean(g.Sealed)
		w.i64(g.LiveCount)
		w.ints(g.Zones)
		w.u32(uint32(len(g.Members)))
		for mi := range g.Members {
			m := &g.Members[mi]
			w.u64(m.ID)
			w.i64(m.Slot)
			w.boolean(m.Dead)
			w.i64(m.ObjCount)
			w.f64(m.Fill)
			w.ints(m.Zones)
			w.u32(uint32(len(m.SetCounts)))
			for _, c := range m.SetCounts {
				w.u16(c)
			}
			w.boolean(m.Bits != nil)
			if m.Bits != nil {
				w.u32(uint32(len(m.Bits)))
				for _, word := range m.Bits {
					w.u64(word)
				}
			}
		}
		w.u32(uint32(len(g.SlotBF)))
		for _, bf := range g.SlotBF {
			w.blob(bf)
		}
	}
	return w.b
}

func decodeGroups(b []byte, s *Shard) error {
	r := &reader{b: b}
	ng := r.count(1)
	for gi := 0; gi < ng && r.err == nil; gi++ {
		var g Group
		g.ID = r.i64()
		g.Sealed = r.boolean()
		g.LiveCount = r.i64()
		g.Zones = r.ints()
		nm := r.count(1)
		for mi := 0; mi < nm && r.err == nil; mi++ {
			var m SG
			m.ID = r.u64()
			m.Slot = r.i64()
			m.Dead = r.boolean()
			m.ObjCount = r.i64()
			m.Fill = r.f64()
			m.Zones = r.ints()
			if nc := r.count(2); nc > 0 {
				m.SetCounts = make([]uint16, nc)
				for i := range m.SetCounts {
					m.SetCounts[i] = r.u16()
				}
			}
			if r.boolean() {
				nb := r.count(8)
				m.Bits = make([]uint64, nb)
				for i := range m.Bits {
					m.Bits[i] = r.u64()
				}
			}
			g.Members = append(g.Members, m)
		}
		nbf := r.count(4)
		for i := 0; i < nbf && r.err == nil; i++ {
			g.SlotBF = append(g.SlotBF, r.blob())
		}
		s.Groups = append(s.Groups, g)
	}
	return r.done()
}

func encodeMemQ(s *Shard) []byte {
	var w writer
	w.u32(uint32(len(s.MemQ)))
	for i := range s.MemQ {
		m := &s.MemQ[i]
		w.u64(m.NewBytes)
		w.u64(m.WBBytes)
		w.i64(m.NewObjs)
		w.i64(m.WBObjs)
		w.u32(uint32(len(m.Sets)))
		for _, set := range m.Sets {
			w.blob(set)
		}
	}
	return w.b
}

func decodeMemQ(b []byte, s *Shard) error {
	r := &reader{b: b}
	n := r.count(1)
	for i := 0; i < n && r.err == nil; i++ {
		var m MemSG
		m.NewBytes = r.u64()
		m.WBBytes = r.u64()
		m.NewObjs = r.i64()
		m.WBObjs = r.i64()
		ns := r.count(4)
		for j := 0; j < ns && r.err == nil; j++ {
			m.Sets = append(m.Sets, r.blob())
		}
		s.MemQ = append(s.MemQ, m)
	}
	return r.done()
}

func encodeRefs(w *writer, refs []PBFGRef) {
	w.u32(uint32(len(refs)))
	for _, ref := range refs {
		w.i64(ref.Group)
		w.i64(ref.Set)
	}
}

func decodeRefs(r *reader) []PBFGRef {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	out := make([]PBFGRef, n)
	for i := range out {
		out[i] = PBFGRef{Group: r.i64(), Set: r.i64()}
	}
	return out
}

func encodeICache(s *Shard) []byte {
	var w writer
	encodeRefs(&w, s.ICQueue)
	encodeRefs(&w, s.ICPages)
	return w.b
}

func decodeICache(b []byte, s *Shard) error {
	r := &reader{b: b}
	s.ICQueue = decodeRefs(r)
	s.ICPages = decodeRefs(r)
	return r.done()
}

func encodeFlushLog(s *Shard) []byte {
	var w writer
	w.u32(uint32(len(s.FlushLog)))
	for i := range s.FlushLog {
		rec := &s.FlushLog[i]
		w.f64(rec.Fill)
		w.i64(rec.NewObjs)
		w.i64(rec.WBObjs)
		w.u64(rec.NewBytes)
		w.u64(rec.WBBytes)
	}
	return w.b
}

func decodeFlushLog(b []byte, s *Shard) error {
	r := &reader{b: b}
	n := r.count(40)
	for i := 0; i < n && r.err == nil; i++ {
		s.FlushLog = append(s.FlushLog, FlushRec{
			Fill:     r.f64(),
			NewObjs:  r.i64(),
			WBObjs:   r.i64(),
			NewBytes: r.u64(),
			WBBytes:  r.u64(),
		})
	}
	return r.done()
}

// Decode parses a complete NEMO1 image, validating structure exhaustively:
// magic, version, zeroed reserved bytes, exact total length, strict section
// order, per-section CRCs, the whole-file footer CRC, bounded counts,
// binary booleans, and exact payload consumption. Every defect maps to a
// typed sentinel (ErrTruncated, ErrMagic, ErrVersion, ErrChecksum,
// ErrCorrupt); no input panics. Accepted inputs are canonical —
// Encode(Decode(b)) == b.
func Decode(b []byte) (*File, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte image is shorter than the %d-byte header", ErrTruncated, len(b), headerSize)
	}
	if string(b[:8]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, v, Version)
	}
	f := &File{
		PageSize:     int(binary.LittleEndian.Uint32(b[12:])),
		PagesPerZone: int(binary.LittleEndian.Uint32(b[16:])),
		Zones:        int(binary.LittleEndian.Uint32(b[20:])),
		Boot:         binary.LittleEndian.Uint64(b[24:]),
		Writes:       binary.LittleEndian.Uint64(b[32:]),
	}
	shardCount := binary.LittleEndian.Uint32(b[40:])
	totalLen := binary.LittleEndian.Uint64(b[44:])
	for _, z := range b[52:headerSize] {
		if z != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrCorrupt)
		}
	}
	if uint64(len(b)) < totalLen {
		return nil, fmt.Errorf("%w: image is %d bytes of a declared %d", ErrTruncated, len(b), totalLen)
	}
	if uint64(len(b)) > totalLen {
		return nil, fmt.Errorf("%w: %d bytes beyond the declared image length", ErrCorrupt, uint64(len(b))-totalLen)
	}

	off := headerSize
	next := func(kind uint32) ([]byte, error) {
		if len(b)-off < sectionHdrSize {
			return nil, fmt.Errorf("%w: image ends inside a section header", ErrTruncated)
		}
		k := binary.LittleEndian.Uint32(b[off:])
		n := int(binary.LittleEndian.Uint32(b[off+4:]))
		sum := binary.LittleEndian.Uint32(b[off+8:])
		if k != kind {
			return nil, fmt.Errorf("%w: section kind %d where %d was required", ErrCorrupt, k, kind)
		}
		if n < 0 || len(b)-off-sectionHdrSize < n {
			return nil, fmt.Errorf("%w: section %d payload overruns the image", ErrTruncated, kind)
		}
		payload := b[off+sectionHdrSize : off+sectionHdrSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, kind)
		}
		off += sectionHdrSize + n
		return payload, nil
	}

	payload, err := next(secConfig)
	if err != nil {
		return nil, err
	}
	if f.Config, err = decodeConfig(payload); err != nil {
		return nil, fmt.Errorf("config section: %w", err)
	}
	for i := uint32(0); i < shardCount; i++ {
		var s Shard
		for _, kind := range shardSections {
			payload, err := next(kind)
			if err != nil {
				return nil, err
			}
			switch kind {
			case secMeta:
				err = decodeMeta(payload, &s)
			case secFree:
				err = decodeFree(payload, &s)
			case secGroups:
				err = decodeGroups(payload, &s)
			case secMemQ:
				err = decodeMemQ(payload, &s)
			case secICache:
				err = decodeICache(payload, &s)
			case secFlushLog:
				err = decodeFlushLog(payload, &s)
			}
			if err != nil {
				return nil, fmt.Errorf("shard %d section %d: %w", i, kind, err)
			}
		}
		f.Shards = append(f.Shards, s)
	}
	footerStart := off
	payload, err = next(secFooter)
	if err != nil {
		return nil, err
	}
	if len(payload) != 4 {
		return nil, fmt.Errorf("%w: footer payload is %d bytes, want 4", ErrCorrupt, len(payload))
	}
	if crc32.ChecksumIEEE(b[:footerStart]) != binary.LittleEndian.Uint32(payload) {
		return nil, fmt.Errorf("%w: whole-file footer", ErrChecksum)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d bytes after the footer", ErrCorrupt, len(b)-off)
	}
	return f, nil
}

// SectionOffsets walks a well-framed image and returns the byte offsets of
// every structural boundary: 0 (header start), the first section, each
// subsequent section, and len(b) as the final element. It validates framing
// only (not CRCs or payload content) — the crash-matrix tests use it to
// aim truncations and corruptions at exact boundaries.
func SectionOffsets(b []byte) ([]int, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte image is shorter than the %d-byte header", ErrTruncated, len(b), headerSize)
	}
	offs := []int{0, headerSize}
	off := headerSize
	for off < len(b) {
		if len(b)-off < sectionHdrSize {
			return nil, fmt.Errorf("%w: image ends inside a section header", ErrTruncated)
		}
		n := int(binary.LittleEndian.Uint32(b[off+4:]))
		if n < 0 || len(b)-off-sectionHdrSize < n {
			return nil, fmt.Errorf("%w: section payload overruns the image", ErrTruncated)
		}
		off += sectionHdrSize + n
		offs = append(offs, off)
	}
	return offs, nil
}
