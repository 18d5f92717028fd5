package filedev

// Superblock persistence for Persist-mode devices: one extra page past the
// data capacity holding the zone write pointers and the generation stamp
// (device.Generation), so a cleanly closed image reopens warm instead of
// reformatting. The protocol is deliberately pessimistic:
//
//   - Open reads and validates the superblock (magic, version, geometry,
//     CRC). Valid: write pointers, Boot, and Writes are restored. Invalid in
//     any way: the device cold-formats with a fresh random Boot, and the
//     stale superblock is zeroed immediately so it can never be trusted by a
//     later open under a different life of the image.
//   - The FIRST mutation after an open zeroes the superblock before touching
//     any zone (invalidate-then-mutate). A process crash at any point after
//     that leaves an invalid superblock, so the next open cold-formats — the
//     write pointers on disk never lie about zones that were appended or
//     reset after them. The zeroing write is not fsynced, so this holds for
//     process kills, not power loss (the crash model in internal/device's
//     package comment).
//   - Close rewrites the superblock from the final state and fsyncs, making
//     the image warm-openable again.
//
// The superblock is metadata about the image, not cache data: losing it
// costs a reformat (and therefore a cold cache start), never correctness.

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"nemo/internal/device"
)

// sbMagic identifies a filedev superblock page.
const sbMagic = "NEMOSB1\x00"

// sbVersion is the current superblock layout version.
const sbVersion = 1

// sbFixed is the superblock size excluding the per-zone write-pointer table
// and the trailing CRC: magic, version, geometry triple, boot, writes.
const sbFixed = 8 + 4 + 3*4 + 8 + 8

// sbSize returns the serialized superblock size for a zone count.
func sbSize(zones int) int { return sbFixed + 4*zones + 4 }

// randBoot draws a fresh random Boot stamp. Randomness (not a counter) is
// what makes Boot unique across process lifetimes without any global state:
// a crashed image's snapshots can never collide with the fresh format's.
func randBoot() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("filedev: reading random boot stamp: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// sbOffset returns the superblock's byte offset: the first page past the
// data capacity. Zone addressing is untouched by Persist mode, so a warm
// image holds byte-identical zone contents to a volatile one.
func (d *Device) sbOffset() int64 {
	return int64(d.cfg.Zones) * int64(d.cfg.PagesPerZone) * int64(d.cfg.PageSize)
}

// encodeSuperblock serializes the current write pointers and generation
// stamp into a full, zero-padded page image.
func (d *Device) encodeSuperblock(page []byte) {
	buf := page[:0]
	buf = append(buf, sbMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, sbVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.cfg.PageSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.cfg.PagesPerZone))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.cfg.Zones))
	gen := d.Generation()
	buf = binary.LittleEndian.AppendUint64(buf, gen.Boot)
	buf = binary.LittleEndian.AppendUint64(buf, gen.Writes)
	for i := 0; i < d.cfg.Zones; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.ZoneWP(i)))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	clear(page[len(buf):d.cfg.PageSize])
}

// decodeSuperblock parses a superblock page against the device's geometry,
// returning the restored write pointers and generation stamp. Any defect —
// wrong magic, version, geometry, out-of-range write pointer, CRC mismatch —
// returns an error; the caller then cold-formats.
func (d *Device) decodeSuperblock(page []byte) (wps []int, gen device.Generation, err error) {
	n := sbSize(d.cfg.Zones)
	if len(page) < n {
		return nil, gen, fmt.Errorf("filedev: superblock short: %d < %d", len(page), n)
	}
	if string(page[:8]) != sbMagic {
		return nil, gen, fmt.Errorf("filedev: bad superblock magic")
	}
	if v := binary.LittleEndian.Uint32(page[8:]); v != sbVersion {
		return nil, gen, fmt.Errorf("filedev: superblock version %d (want %d)", v, sbVersion)
	}
	gotCRC := binary.LittleEndian.Uint32(page[n-4:])
	if crc32.ChecksumIEEE(page[:n-4]) != gotCRC {
		return nil, gen, fmt.Errorf("filedev: superblock CRC mismatch")
	}
	ps := int(binary.LittleEndian.Uint32(page[12:]))
	ppz := int(binary.LittleEndian.Uint32(page[16:]))
	zones := int(binary.LittleEndian.Uint32(page[20:]))
	if ps != d.cfg.PageSize || ppz != d.cfg.PagesPerZone || zones != d.cfg.Zones {
		return nil, gen, fmt.Errorf("filedev: superblock geometry %dx%dx%d does not match %dx%dx%d",
			zones, ppz, ps, d.cfg.Zones, d.cfg.PagesPerZone, d.cfg.PageSize)
	}
	gen.Boot = binary.LittleEndian.Uint64(page[24:])
	gen.Writes = binary.LittleEndian.Uint64(page[32:])
	wps = make([]int, zones)
	for i := range wps {
		wp := int(binary.LittleEndian.Uint32(page[sbFixed+4*i:]))
		if wp > ppz {
			return nil, gen, fmt.Errorf("filedev: superblock wp %d exceeds zone size %d", wp, ppz)
		}
		wps[i] = wp
	}
	return wps, gen, nil
}

// writeSuperblockPage writes a full page image at the superblock offset
// through a pooled (and, in Direct mode, aligned) buffer.
func (d *Device) writeSuperblockPage(fill func(page []byte)) error {
	bp := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(bp)
	page := (*bp)[:d.cfg.PageSize]
	fill(page)
	if _, err := d.f.WriteAt(page, d.sbOffset()); err != nil {
		return fmt.Errorf("filedev: writing superblock: %w", err)
	}
	return nil
}

// Mutating (device.Media: Zoned calls it before every append and reset,
// outside the zone lock) zeroes the superblock before the first mutation of
// this open (invalidate-then-mutate). sync.Once both bounds the cost to one
// page write per open and acts as the barrier that keeps a concurrent second
// mutation from proceeding before the superblock is actually dead on disk.
// A write failure is ignored deliberately: the superblock is rewritten from
// live state on Close, and until then a possibly-stale superblock is only
// reachable through a crash, where the generation mismatch recorded there
// (Writes frozen at open time) already fails snapshot validation.
func (m media) Mutating() {
	if !m.cfg.Persist {
		return
	}
	m.metaOnce.Do(func() {
		m.writeSuperblockPage(func(page []byte) { clear(page) })
	})
}

// loadOrFormatMeta runs at Open in Persist mode, before the state machine
// exists: a superblock that validates yields the generation and write
// pointers for Zoned to adopt; otherwise the device cold-formats (fresh
// random Boot, nil write pointers, stale superblock zeroed). It returns an
// error only for I/O failures on the image itself.
func (d *Device) loadOrFormatMeta() (device.Generation, []int, error) {
	bp := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(bp)
	page := (*bp)[:d.cfg.PageSize]
	if _, err := d.f.ReadAt(page, d.sbOffset()); err != nil {
		return device.Generation{}, nil, fmt.Errorf("filedev: reading superblock: %w", err)
	}
	wps, gen, err := d.decodeSuperblock(page)
	if err != nil {
		// Zero the stale superblock now: a later open must never adopt a
		// superblock written by a different life (or geometry) of the image.
		return device.Generation{Boot: randBoot()}, nil, d.writeSuperblockPage(func(page []byte) { clear(page) })
	}
	d.restored = true
	return gen, wps, nil
}

// flushMeta rewrites the superblock from the current device state and syncs
// it to stable storage (Close path).
func (d *Device) flushMeta() error {
	if err := d.writeSuperblockPage(d.encodeSuperblock); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("filedev: syncing superblock: %w", err)
	}
	return nil
}
