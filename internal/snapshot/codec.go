package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

const (
	magic      = "NEMO1\x00\x00\x00"
	headerSize = 64
	// Version is the NEMO1 format version this code writes and the only one
	// it reads. There is no cross-version migration by design: an old
	// snapshot is throwaway, exactly like a corrupt one. Version 2 marked the
	// on-flash PBFG pages as bit-sliced (bloom.GroupMask); version 3 drops
	// every field restore can compute (the package doc lists them); version 4
	// records each group's filter width and moves the probe positions;
	// version 5 drops the state nothing reads (the flush log, SG fill rates,
	// writeback object counts of buffered SGs, two config slots) and adds
	// the new-object counter.
	Version = 5

	sectionHdrSize = 12 // kind u32 | len u32 | crc32 u32
)

// Section kinds, in the exact order they must appear. Kind 7 is unused:
// it was the flush log before version 5.
const (
	secConfig = 1
	secMeta   = 2
	secFree   = 3
	secGroups = 4
	secMemQ   = 5
	secICache = 6
	secFooter = 8
)

// Each NEMO1 section is written down once, as a walk over a two-way coder
// that Encode and Decode both run; the header, section framing, CRCs and
// footer stay hand-written. shardSections lists the per-shard walks in order.
var shardSections = [...]struct {
	kind uint32
	walk func(*coder, *Shard)
}{
	{secMeta, walkMeta},
	{secFree, walkFree},
	{secGroups, walkGroups},
	{secMemQ, walkMemQ},
	{secICache, walkICache},
}

// coder walks one section payload field by field, in either direction. With
// enc set it appends each field to b. Otherwise it consumes each field from
// b with a sticky error: after the first defect every later field keeps its
// zero value and the error survives to done. Defects inside a CRC-valid
// section payload are ErrCorrupt — the bytes are intact, their content is
// not a valid encoding.
type coder struct {
	enc bool
	b   []byte
	off int
	err error
}

func (c *coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.err = ErrCorrupt
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

func (c *coder) u16(v *uint16) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint16(c.b, *v)
	} else if s := c.take(2); s != nil {
		*v = binary.LittleEndian.Uint16(s)
	}
}

func (c *coder) u32(v *uint32) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if s := c.take(4); s != nil {
		*v = binary.LittleEndian.Uint32(s)
	}
}

func (c *coder) u64(v *uint64) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if s := c.take(8); s != nil {
		*v = binary.LittleEndian.Uint64(s)
	}
}

func (c *coder) i64(v *int) {
	u := uint64(int64(*v))
	c.u64(&u)
	*v = int(int64(u))
}

func (c *coder) f64(v *float64) {
	u := math.Float64bits(*v)
	c.u64(&u)
	*v = math.Float64frombits(u)
}

// boolean walks one 0/1 byte; any other byte decodes as ErrCorrupt.
func (c *coder) boolean(v *bool) {
	if c.enc {
		var x byte
		if *v {
			x = 1
		}
		c.b = append(c.b, x)
	} else if s := c.take(1); s != nil {
		switch s[0] {
		case 0, 1:
			*v = s[0] == 1
		default:
			c.err = ErrCorrupt
		}
	}
}

// count walks the element count of a list of length n (0 on decode, where
// the destination starts empty). A decoded count is bounded by the bytes
// remaining at min bytes per element, so a corrupt count can never drive a
// huge allocation.
func (c *coder) count(n, min int) int {
	u := uint32(n)
	c.u32(&u)
	if !c.enc && int(u) > (len(c.b)-c.off)/min {
		c.err = ErrCorrupt
		return 0
	}
	return int(u)
}

// list walks a count-prefixed list, each element through elem; min is the
// fewest bytes one element encodes to. A decoded empty list is nil. Decoding
// sizes the list from its count only when an element is no larger in memory
// than min, so the bounded count bounds the allocation; others grow by append.
func list[T any](c *coder, s *[]T, min int, elem func(*coder, *T)) {
	n := c.count(len(*s), min)
	if c.enc {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	var zero T
	if n > 0 && unsafe.Sizeof(zero) <= uintptr(min) {
		*s = make([]T, 0, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		*s = append(*s, zero)
		elem(c, &(*s)[i])
	}
}

// blob walks a length-prefixed byte string (decoded as a copy; nil when
// empty).
func (c *coder) blob(p *[]byte) {
	n := c.count(len(*p), 1)
	if c.enc {
		c.b = append(c.b, *p...)
	} else {
		*p = append([]byte(nil), c.take(n)...)
	}
}

func (c *coder) ints(s *[]int) { list(c, s, 8, (*coder).i64) }

// done reports the payload fully and cleanly consumed; anything else is the
// sticky error (or ErrCorrupt for slack bytes — canonical encodings leave
// none).
func (c *coder) done() error {
	if c.err == nil && c.off != len(c.b) {
		return ErrCorrupt
	}
	return c.err
}

// section appends a kind section whose payload is what walk appends.
func (c *coder) section(kind uint32, walk func(*coder)) {
	start := len(c.b)
	c.b = append(c.b, make([]byte, sectionHdrSize)...)
	walk(c)
	payload := c.b[start+sectionHdrSize:]
	binary.LittleEndian.PutUint32(c.b[start:], kind)
	binary.LittleEndian.PutUint32(c.b[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.b[start+8:], crc32.ChecksumIEEE(payload))
}

func walkConfig(c *coder, s *ConfigStamp) {
	c.i64(&s.DataZones)
	c.i64(&s.Shards)
	c.i64(&s.FlushThreshold)
	c.i64(&s.SGsPerIndexGroup)
	c.f64(&s.BloomFPR)
	c.f64(&s.CachedPBFGRatio)
	c.f64(&s.CoolingWriteRatio)
	c.boolean(&s.BufferedSGs)
	c.boolean(&s.DelayedFlush)
	c.boolean(&s.Writeback)
}

func walkMeta(c *coder, s *Shard) {
	c.u64(&s.NextSGID)
	c.i64(&s.NextGroup)
	c.i64(&s.SacCount)
	c.u64(&s.BytesSinceCool)
	c.u64(&s.ICLookups)
	c.u64(&s.ICMisses)
	c.u64(&s.Stats.Gets)
	c.u64(&s.Stats.Hits)
	c.u64(&s.Stats.Sets)
	c.u64(&s.Stats.Deletes)
	c.u64(&s.Stats.LogicalBytes)
	c.u64(&s.Stats.FlashBytesWritten)
	c.u64(&s.Stats.DeviceBytesWritten)
	c.u64(&s.Stats.FlashBytesRead)
	c.u64(&s.Stats.FlashReadOps)
	c.u64(&s.Stats.ReadErrors)
	c.u64(&s.Stats.WriteErrors)
	c.u64(&s.Stats.Evictions)
	c.u64(&s.Extra.SGsFlushed)
	c.f64(&s.Extra.FillSum)
	c.u64(&s.Extra.NewBytes)
	c.u64(&s.Extra.NewObjs)
	c.u64(&s.Extra.WriteBackBytes)
	c.u64(&s.Extra.WriteBackObjs)
	c.u64(&s.Extra.Sacrificed)
	c.u64(&s.Extra.DataBytesWritten)
	c.u64(&s.Extra.IndexBytesWritten)
	c.u64(&s.Extra.FalsePositiveReads)
	c.u64(&s.Extra.CoolingRuns)
}

func walkFree(c *coder, s *Shard) {
	c.ints(&s.FreeDataZones)
	c.ints(&s.FreeIndexZones)
}

func walkGroups(c *coder, s *Shard) { list(c, &s.Groups, 1, walkGroup) }

func walkGroup(c *coder, g *Group) {
	c.i64(&g.Zone)
	c.i64(&g.FilterBits)
	list(c, &g.Members, 1, walkSG)
	list(c, &g.SlotBF, 4, (*coder).blob)
}

func walkSG(c *coder, m *SG) {
	c.u64(&m.ID)
	c.i64(&m.Zone)
	list(c, &m.SetCounts, 2, (*coder).u16)
	// A present bitmap decodes non-nil even when empty: core allocates it
	// lazily, so nil and empty are different states.
	present := m.Bits != nil
	c.boolean(&present)
	if present {
		list(c, &m.Bits, 8, (*coder).u64)
		if m.Bits == nil {
			m.Bits = []uint64{}
		}
	}
}

func walkMemQ(c *coder, s *Shard) { list(c, &s.MemQ, 1, walkMemSG) }

func walkMemSG(c *coder, m *MemSG) {
	c.u64(&m.NewBytes)
	c.u64(&m.WBBytes)
	c.i64(&m.NewObjs)
	list(c, &m.Sets, 4, (*coder).blob)
}

func walkICache(c *coder, s *Shard) { list(c, &s.ICQueue, 16, walkRef) }

func walkRef(c *coder, r *PBFGRef) {
	c.i64(&r.Group)
	c.i64(&r.Set)
}

// Encode serializes f into a complete NEMO1 image. The encoding is
// canonical: Decode of the result yields a File that re-encodes to the
// identical bytes.
func Encode(f *File) []byte {
	c := &coder{enc: true, b: make([]byte, headerSize)}
	c.section(secConfig, func(c *coder) { walkConfig(c, &f.Config) })
	for i := range f.Shards {
		for _, sec := range shardSections {
			c.section(sec.kind, func(c *coder) { sec.walk(c, &f.Shards[i]) })
		}
	}
	// Header, now that the total length (body + 16-byte footer section) is
	// known — the footer CRC covers the finalized header too.
	h := c.b[:headerSize]
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint32(h[12:], uint32(f.PageSize))
	binary.LittleEndian.PutUint32(h[16:], uint32(f.PagesPerZone))
	binary.LittleEndian.PutUint32(h[20:], uint32(f.Zones))
	binary.LittleEndian.PutUint64(h[24:], f.Boot)
	binary.LittleEndian.PutUint64(h[32:], f.Writes)
	binary.LittleEndian.PutUint32(h[40:], uint32(len(f.Shards)))
	binary.LittleEndian.PutUint64(h[44:], uint64(len(c.b)+sectionHdrSize+4))
	sum := crc32.ChecksumIEEE(c.b)
	c.section(secFooter, func(c *coder) { c.u32(&sum) })
	return c.b
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
	// next frames the section at off, requires it to be kind with an intact
	// payload, and walks that payload, which must be consumed exactly.
	next := func(kind uint32, walk func(*coder)) error {
		k, sum, payload, err := sectionAt(b, off)
		switch {
		case err != nil:
			return err
		case k != kind:
			return fmt.Errorf("%w: section kind %d where %d was required", ErrCorrupt, k, kind)
		case crc32.ChecksumIEEE(payload) != sum:
			return fmt.Errorf("%w: section %d", ErrChecksum, kind)
		}
		off += sectionHdrSize + len(payload)
		c := &coder{b: payload}
		walk(c)
		if err := c.done(); err != nil {
			return fmt.Errorf("section %d: %w", kind, err)
		}
		return nil
	}

	if err := next(secConfig, func(c *coder) { walkConfig(c, &f.Config) }); err != nil {
		return nil, err
	}
	for i := uint32(0); i < shardCount; i++ {
		f.Shards = append(f.Shards, Shard{})
		s := &f.Shards[i]
		for _, sec := range shardSections {
			if err := next(sec.kind, func(c *coder) { sec.walk(c, s) }); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	footerStart := off
	var sum uint32
	if err := next(secFooter, func(c *coder) { c.u32(&sum) }); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(b[:footerStart]) != sum {
		return nil, fmt.Errorf("%w: whole-file footer", ErrChecksum)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d bytes after the footer", ErrCorrupt, len(b)-off)
	}
	return f, nil
}

// sectionAt frames the section whose header starts at off: its kind, its
// payload CRC, and its payload, bounded by the image. Decode and
// SectionOffsets both frame through it.
func sectionAt(b []byte, off int) (kind, sum uint32, payload []byte, err error) {
	if len(b)-off < sectionHdrSize {
		return 0, 0, nil, fmt.Errorf("%w: image ends inside a section header", ErrTruncated)
	}
	kind = binary.LittleEndian.Uint32(b[off:])
	n := int(binary.LittleEndian.Uint32(b[off+4:]))
	if n < 0 || len(b)-off-sectionHdrSize < n {
		return 0, 0, nil, fmt.Errorf("%w: section %d payload overruns the image", ErrTruncated, kind)
	}
	payload = b[off+sectionHdrSize : off+sectionHdrSize+n]
	return kind, binary.LittleEndian.Uint32(b[off+8:]), payload, nil
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
		_, _, payload, err := sectionAt(b, off)
		if err != nil {
			return nil, err
		}
		off += sectionHdrSize + len(payload)
		offs = append(offs, off)
	}
	return offs, nil
}
