// Package setblock implements the 4 KB set-page codec shared by every
// set-associative engine in this repository (Nemo's SG sets, the CacheLib
// Set baseline, and the hierarchical baselines' HSet pages).
//
// A block is a page-sized byte buffer holding variable-size entries in
// insertion (FIFO) order:
//
//	header : count uint16 | used uint16
//	entry  : fp uint64 | keyLen uint8 | valLen uint16 | key | value
//
// FIFO order makes "evict oldest" the natural within-set eviction, matching
// CacheLib's BigHash behaviour the paper builds on.
package setblock

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// HeaderSize is the per-block header in bytes.
const HeaderSize = 4

// EntryOverhead is the per-entry metadata size in bytes.
const EntryOverhead = 8 + 1 + 2

// EntrySize returns the serialized size of an entry with the given key and
// value lengths.
func EntrySize(keyLen, valLen int) int { return EntryOverhead + keyLen + valLen }

// MaxObjectBytes is the largest key+value a set page of pageSize bytes
// admits: the object's entry alone in the block.
func MaxObjectBytes(pageSize int) int { return pageSize - HeaderSize - EntryOverhead }

// Entry is a decoded object reference. Key and Value alias the block's
// buffer and are invalidated by the next mutation.
type Entry struct {
	FP    uint64
	Key   []byte
	Value []byte
}

// Block is a mutable set page. The zero value is unusable; use New or Parse.
type Block struct {
	buf   []byte // serialized entries (no header), len == used payload bytes
	size  int    // page size budget including header
	count int
}

// New returns an empty block with the given page-size budget.
func New(size int) *Block {
	if size <= HeaderSize {
		panic(fmt.Sprintf("setblock: size %d too small", size))
	}
	return &Block{buf: make([]byte, 0, size-HeaderSize), size: size}
}

// Reset clears the block to empty without releasing its buffer.
func (b *Block) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// Count returns the number of entries.
func (b *Block) Count() int { return b.count }

// Used returns the occupied bytes including the header.
func (b *Block) Used() int { return HeaderSize + len(b.buf) }

// Free returns the remaining byte budget.
func (b *Block) Free() int { return b.size - b.Used() }

// Size returns the page-size budget.
func (b *Block) Size() int { return b.size }

// CanFit reports whether an entry with the given key/value lengths fits in
// the remaining space.
func (b *Block) CanFit(keyLen, valLen int) bool {
	return EntrySize(keyLen, valLen) <= b.Free()
}

// AppendEntry serializes one entry — the 11-byte fp | keyLen | valLen header,
// then key and value — onto dst and returns the extended slice. It is the
// one encoder of the entry layout: set pages and the log-structured engines'
// pages (logcache, hlog) all hold entries written by it. The caller has
// checked that key is ≤ 255 bytes and value ≤ 65535.
func AppendEntry(dst []byte, fp uint64, key, value []byte) []byte {
	var hdr [EntryOverhead]byte
	binary.LittleEndian.PutUint64(hdr[0:], fp)
	hdr[8] = byte(len(key))
	binary.LittleEndian.PutUint16(hdr[9:], uint16(len(value)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	return append(dst, value...)
}

// DecodeEntry decodes the entry starting at buf[off] and returns it with the
// offset just past it. ok is false when the header or the payload would
// leave buf — pages read back from flash are decoded with it, so it is
// bounds-checked. Key and Value alias buf.
func DecodeEntry(buf []byte, off int) (e Entry, next int, ok bool) {
	ks := off + EntryOverhead
	if off < 0 || ks > len(buf) {
		return Entry{}, 0, false
	}
	vs := ks + int(buf[off+8])
	next = vs + int(binary.LittleEndian.Uint16(buf[off+9:]))
	if next > len(buf) {
		return Entry{}, 0, false
	}
	return Entry{FP: binary.LittleEndian.Uint64(buf[off:]), Key: buf[ks:vs:vs], Value: buf[vs:next:next]}, next, true
}

// entryAt decodes the entry starting at offset off, returning the entry and
// the offset just past it. It panics on corrupt buffers (which Parse
// rejects), so internal iteration is panic-free on valid blocks.
func (b *Block) entryAt(off int) (Entry, int) {
	e, next, ok := DecodeEntry(b.buf, off)
	if !ok {
		panic(fmt.Sprintf("setblock: corrupt entry at offset %d", off))
	}
	return e, next
}

// Append adds an entry without checking for duplicates. It returns false
// when the entry does not fit. Key must be ≤ 255 bytes and value ≤ 65535.
func (b *Block) Append(fp uint64, key, value []byte) bool {
	if len(key) > 255 || len(value) > 65535 {
		return false
	}
	if !b.CanFit(len(key), len(value)) {
		return false
	}
	b.buf = AppendEntry(b.buf, fp, key, value)
	b.count++
	return true
}

// find walks count entries of buf (serialized entries, no header) and returns
// the byte offset of the entry for (fp, key), the offset just past it, and its
// FIFO slot, or off < 0 when no entry matches or an entry's bounds leave buf.
// Only the fixed entry header is decoded per step; key bytes are compared only
// after the fingerprint and the key length both match. It is the one search
// loop behind Insert, Lookup, Remove and Scan, and is bounds-checked because
// Scan feeds it pages read back from flash.
func find(buf []byte, count int, fp uint64, key []byte) (off, next, slot int) {
	for ; slot < count; slot++ {
		if off+EntryOverhead > len(buf) {
			break
		}
		ks := off + EntryOverhead
		next = ks + int(buf[off+8]) + int(binary.LittleEndian.Uint16(buf[off+9:]))
		if next > len(buf) {
			break
		}
		if binary.LittleEndian.Uint64(buf[off:]) == fp && int(buf[off+8]) == len(key) &&
			string(buf[ks:ks+len(key)]) == string(key) {
			return off, next, slot
		}
		off = next
	}
	return -1, -1, -1
}

// valueAt returns the value of the entry find located at [off, next) for a
// key of keyLen bytes.
func valueAt(buf []byte, off, next, keyLen int) []byte {
	return buf[off+EntryOverhead+keyLen : next : next]
}

// Insert adds or replaces the entry for (fp, key). A replaced entry moves
// to the FIFO tail (an update refreshes age, as in a log). It returns false
// — leaving any existing version intact — when the new entry would not fit
// even after removing the old one.
func (b *Block) Insert(fp uint64, key, value []byte) bool {
	if len(key) > 255 || len(value) > 65535 {
		return false
	}
	off, next, _ := find(b.buf, b.count, fp, key)
	free := b.Free()
	if off >= 0 {
		free += next - off
	}
	if EntrySize(len(key), len(value)) > free {
		return false
	}
	if off >= 0 {
		b.removeAt(off, next)
	}
	return b.Append(fp, key, value)
}

// Lookup returns the value and FIFO slot index for (fp, key). The returned
// slice aliases the block.
func (b *Block) Lookup(fp uint64, key []byte) (value []byte, slot int, ok bool) {
	off, next, slot := find(b.buf, b.count, fp, key)
	if off < 0 {
		return nil, -1, false
	}
	return valueAt(b.buf, off, next, len(key)), slot, true
}

// Remove deletes the entry for (fp, key), returning whether it existed.
func (b *Block) Remove(fp uint64, key []byte) bool {
	off, next, _ := find(b.buf, b.count, fp, key)
	if off < 0 {
		return false
	}
	b.removeAt(off, next)
	return true
}

// removeAt closes the gap over the entry occupying [off, next).
func (b *Block) removeAt(off, next int) {
	b.buf = append(b.buf[:off], b.buf[next:]...)
	b.count--
}

// EvictOldest removes and returns a copy of the oldest (first) entry.
func (b *Block) EvictOldest() (Entry, bool) {
	if b.count == 0 {
		return Entry{}, false
	}
	e, next := b.entryAt(0)
	out := Entry{FP: e.FP, Key: append([]byte(nil), e.Key...), Value: append([]byte(nil), e.Value...)}
	b.buf = append(b.buf[:0], b.buf[next:]...)
	b.count--
	return out, true
}

// InsertEvicting inserts e the way a full set admits an object: oldest
// residents are evicted, each handed to evicted, until e fits (or the block
// is empty), then e is inserted.
func (b *Block) InsertEvicting(e Entry, evicted func(Entry)) {
	for !b.CanFit(len(e.Key), len(e.Value)) {
		old, ok := b.EvictOldest()
		if !ok {
			break
		}
		evicted(old)
	}
	b.Insert(e.FP, e.Key, e.Value)
}

// Range calls fn for each entry in FIFO order until fn returns false.
// Entries alias the block; fn must not mutate the block.
func (b *Block) Range(fn func(slot int, e Entry) bool) {
	off := 0
	for i := 0; i < b.count; i++ {
		e, next := b.entryAt(off)
		if !fn(i, e) {
			return
		}
		off = next
	}
}

// AppendTo serializes the block (header + entries) onto dst, zero-padding to
// the full page size, and returns the extended slice.
func (b *Block) AppendTo(dst []byte) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(b.count))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(b.buf)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, b.buf...)
	end := len(dst) + b.size - HeaderSize - len(b.buf)
	dst = slices.Grow(dst, end-len(dst))
	clear(dst[len(dst):end])
	return dst[:end]
}

// Parse decodes a serialized page into a fresh block with the given size
// budget, validating all entry bounds.
func Parse(page []byte, size int) (*Block, error) {
	b := New(size)
	if err := b.DecodeFrom(page); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeFrom decodes a serialized page into b, reusing b's existing storage
// (the size budget is b's). On error b is left empty.
func (b *Block) DecodeFrom(page []byte) error {
	b.Reset()
	if len(page) < HeaderSize {
		return fmt.Errorf("setblock: page shorter than header")
	}
	count := int(binary.LittleEndian.Uint16(page[0:]))
	used := int(binary.LittleEndian.Uint16(page[2:]))
	if HeaderSize+used > len(page) || HeaderSize+used > b.size {
		return fmt.Errorf("setblock: used %d exceeds page", used)
	}
	b.buf = append(b.buf[:0], page[HeaderSize:HeaderSize+used]...)
	// Validate by walking all entries.
	off := 0
	for i := 0; i < count; i++ {
		if off+EntryOverhead > used {
			b.Reset()
			return fmt.Errorf("setblock: entry %d header out of bounds", i)
		}
		kl := int(b.buf[off+8])
		vl := int(binary.LittleEndian.Uint16(b.buf[off+9:]))
		off += EntryOverhead + kl + vl
		if off > used {
			b.Reset()
			return fmt.Errorf("setblock: entry %d payload out of bounds", i)
		}
	}
	if off != used {
		b.Reset()
		return fmt.Errorf("setblock: trailing %d bytes after %d entries", used-off, count)
	}
	b.count = count
	return nil
}

// Scan searches a serialized page for (fp, key) without materializing a
// Block — the zero-copy hot path for candidate-set lookups. The returned
// value aliases page.
func Scan(page []byte, fp uint64, key []byte) (value []byte, slot int, ok bool) {
	if len(page) < HeaderSize {
		return nil, -1, false
	}
	count := int(binary.LittleEndian.Uint16(page[0:]))
	used := int(binary.LittleEndian.Uint16(page[2:]))
	if HeaderSize+used > len(page) {
		return nil, -1, false
	}
	buf := page[HeaderSize : HeaderSize+used]
	off, next, slot := find(buf, count, fp, key)
	if off < 0 {
		return nil, -1, false
	}
	return valueAt(buf, off, next, len(key)), slot, true
}
