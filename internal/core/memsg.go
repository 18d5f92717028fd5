package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"nemo/internal/setblock"
)

// memSG is a mutable in-memory Set-Group: SetsPerSG sets aggregating
// incoming objects until flush (§4.1 "an SG begins as a mutable in-memory
// structure"). It holds the bytes its entries take and not SetsPerSG pages:
// entries live in an append-only log of fixed-size chunks, and each set is a
// FIFO chain of records through the log. A record is a 4-byte link to the
// set's next record followed by the entry exactly as setblock.AppendEntry
// writes it, and never straddles two chunks; a set's head names its oldest
// and newest records and carries the count and entry bytes its page image's
// header states, so appendSet writes the page a setblock.Block of the same
// entries would. A chunk is chunkPages pages, or the SG's bytes when it is
// smaller, so the largest record — one page — always fits one.
//
// remove and sacrifice unlink a record and leave it dead in the log, as does
// the gap a record leaves at a chunk's end when it does not fit there. Once
// the dead bytes reach both the live ones and two chunks, the log is
// compacted: each set's live records are copied, set by set in FIFO order,
// into fresh chunks, and the old chunks go back. So the log holds at most
// 2 × live + 3 chunks, whatever the overwrite pattern. Chunks come from and
// return to the list on the shard's kitPool, which every shard of a Sharded
// cache shares; reset returns them all.
//
// Values returned by lookup and rangeSet alias the log: the next mutation
// may move or recycle them, so callers copy under the shard lock.
//
// A shard owns the Config.MemSGs in its memq; the rear a seal rotates in
// comes from the flush kit, where the flushed front — reset at commit, so
// without chunks — replaces it.
//
// Absent before append: a set never holds two entries for one key. insert
// appends without searching, so every caller proves the key absent from the
// set first, under the same hold of the shard lock — placeLocked removes the
// key from every memq SG (again after each flush it waits on, which releases
// the lock), and eviction writeback inserts only what shadowedByNewer just
// found in no in-memory SG.
type memSG struct {
	heads []setHead
	// present is presenceWords words per set, a two-probe filter over the
	// set's entries: bits fp>>55 and fp>>46 (of 512) are set when an entry
	// with that fingerprint is appended and cleared only by reset, so a
	// clear bit proves absence and lookup/remove answer without walking the
	// chain; bits left behind by a removed or sacrificed entry only cost the
	// walk they would have cost anyway.
	present []uint64

	chunks [][]byte // the log, in append order; appends land in the last
	swap   [][]byte // compaction's second chunk list, kept for its capacity
	tail   int      // bytes taken in the last chunk
	live   int      // bytes of the records the chains hold
	dead   int      // bytes of the rest: unlinked records and chunk-end gaps

	pool      *kitPool
	chunkSize int
	shift     uint // a record's address is its chunk's index << shift | offset
	keepIdle  int  // chunks the pool may keep idle: one SG's bytes
	pageSize  int

	// newBytes counts the user bytes inserted into this SG as new objects,
	// including copies later sacrificed by delayed flushing or removed by
	// an overwrite or a delete: nothing takes a removed copy back. A flush
	// adds it to NemoStats.NewBytes (the paper's WA denominator, §5.2);
	// writeback bytes are tracked separately and excluded.
	newBytes uint64
	wbBytes  uint64
	newObjs  int
	used     int // Σ over sets of header + entry bytes: the page images' fill
}

// setHead is one set's chain: the addresses of its oldest and newest
// records, and the entry count and entry bytes of its page image's header.
type setHead struct {
	first, last uint32
	count, used uint16
}

const (
	// recLink is a record's link to the next record of its set.
	recLink = 4
	// chunkPages is a log chunk's size in pages, capped at the SG's.
	chunkPages = 4
	// presenceWords is the presence filter's size per set: 512 bits.
	presenceWords = 8
)

// logGeometry is the chunk size of an SG of setsPerSG pages of pageSize
// bytes, and the address shift it needs; ok is false when the most chunks
// its log can hold — 2 × live + 3, with live under twice the SG's bytes (a
// link adds 4 bytes to an entry of at least 11) — overflow 32-bit addresses.
func logGeometry(setsPerSG, pageSize int) (chunk int, shift uint, ok bool) {
	chunk = min(chunkPages, setsPerSG) * pageSize
	shift = uint(bits.Len(uint(chunk - 1)))
	return chunk, shift, 4*setsPerSG*pageSize/chunk+3 < 1<<(32-shift)
}

func newMemSG(setsPerSG, pageSize int, pool *kitPool) *memSG {
	chunk, shift, _ := logGeometry(setsPerSG, pageSize)
	return &memSG{
		heads:     make([]setHead, setsPerSG),
		present:   make([]uint64, setsPerSG*presenceWords),
		pool:      pool,
		chunkSize: chunk,
		shift:     shift,
		keepIdle:  setsPerSG * pageSize / chunk,
		pageSize:  pageSize,
		used:      setsPerSG * setblock.HeaderSize,
	}
}

// reset returns the memSG to its freshly-built state and its chunks to the
// pool.
func (sg *memSG) reset() {
	sg.newBytes, sg.wbBytes, sg.newObjs = 0, 0, 0
	sg.used = len(sg.heads) * setblock.HeaderSize
	clear(sg.heads)
	clear(sg.present)
	sg.releaseChunks(sg.chunks)
	sg.chunks = sg.chunks[:0]
	sg.tail, sg.live, sg.dead = 0, 0, 0
}

// releaseChunks hands cs to the pool and clears the list, so the caller's
// slice keeps its capacity but pins no chunk.
func (sg *memSG) releaseChunks(cs [][]byte) {
	sg.pool.putChunks(cs, sg.keepIdle)
	clear(cs)
}

// bytes is the memSG's resident size: its chunks, heads and presence words,
// and the slice headers of its two chunk lists.
func (sg *memSG) bytes() uint64 {
	return uint64(len(sg.chunks)*sg.chunkSize + len(sg.heads)*int(unsafe.Sizeof(setHead{})) + 8*len(sg.present) +
		int(unsafe.Sizeof([]byte(nil)))*(cap(sg.chunks)+cap(sg.swap)))
}

// fillRate returns the SG's aggregate fill rate in [0, 1].
func (sg *memSG) fillRate() float64 {
	if len(sg.heads) == 0 {
		return 0
	}
	return float64(sg.used) / float64(len(sg.heads)*sg.pageSize)
}

// insClass classifies an insert for write accounting.
type insClass uint8

const (
	// insNew is a fresh user object: bytes count as logical/new writes.
	insNew insClass = iota
	// insWriteback is an eviction survivor re-inserted by hotness-aware
	// writeback: bytes are tracked separately and excluded from the WA
	// denominator.
	insWriteback
	// insTombstone is a zero-value deletion marker: not user data, so it
	// counts in neither bucket.
	insTombstone
)

// presenceBits locates fp's two presence bits in set o's words: the word
// indexes and masks of bits fp>>55 and fp>>46 of the set's 512.
func presenceBits(o int, fp uint64) (w1 int, m1 uint64, w2 int, m2 uint64) {
	b1, b2 := fp>>55, fp>>46&511
	return o*presenceWords + int(b1>>6), 1 << (b1 & 63), o*presenceWords + int(b2>>6), 1 << (b2 & 63)
}

// mayHold reports whether set o's presence filter admits fp.
func (sg *memSG) mayHold(o int, fp uint64) bool {
	w1, m1, w2, m2 := presenceBits(o, fp)
	return sg.present[w1]&m1 != 0 && sg.present[w2]&m2 != 0
}

// rec returns the log from the record at addr to its chunk's end.
func (sg *memSG) rec(addr uint32) []byte { return recIn(sg.chunks, sg.shift, addr) }

// recIn is rec over the chunk list chunks (compaction reads the old one).
func recIn(chunks [][]byte, shift uint, addr uint32) []byte {
	return chunks[addr>>shift][addr&(1<<shift-1):]
}

// recLinkOf is the address of the record after r in its set.
func recLinkOf(r []byte) uint32 { return binary.LittleEndian.Uint32(r) }

// recEntrySize is the bytes of r's entry, the link left out.
func recEntrySize(r []byte) int {
	return setblock.EntrySize(int(r[recLink+8]), int(binary.LittleEndian.Uint16(r[recLink+9:])))
}

// free is set o's remaining page budget.
func (sg *memSG) free(o int) int {
	return sg.pageSize - setblock.HeaderSize - int(sg.heads[o].used)
}

// insert appends the entry to set o if it fits, updating accounting per the
// insert's class. The key must be absent from the set (see memSG).
func (sg *memSG) insert(o int, fp uint64, key, value []byte, class insClass) bool {
	if len(key) > 255 || len(value) > 65535 || !sg.canFit(o, len(key), len(value)) {
		return false
	}
	sg.appendRec(o, fp, key, value)
	switch class {
	case insWriteback:
		sg.wbBytes += uint64(len(key) + len(value))
	case insNew:
		sg.newBytes += uint64(len(key) + len(value))
		sg.newObjs++
	}
	sg.maybeCompact()
	return true
}

// canFit reports whether set o has room for the entry.
func (sg *memSG) canFit(o, keyLen, valLen int) bool {
	return setblock.EntrySize(keyLen, valLen) <= sg.free(o)
}

// alloc takes n bytes at the log's tail, opening a chunk when the last one
// has no room, and returns their address and the bytes.
func (sg *memSG) alloc(n int) (uint32, []byte) {
	if len(sg.chunks) == 0 || sg.tail+n > sg.chunkSize {
		if len(sg.chunks) > 0 {
			sg.dead += sg.chunkSize - sg.tail
		}
		sg.chunks = append(sg.chunks, sg.pool.takeChunk(sg.chunkSize))
		sg.tail = 0
	}
	ci := len(sg.chunks) - 1
	addr := uint32(ci)<<sg.shift | uint32(sg.tail)
	b := sg.chunks[ci][sg.tail : sg.tail+n : sg.tail+n]
	sg.tail += n
	sg.live += n
	return addr, b
}

// appendRec links a record of the entry at set o's tail, without the fit
// check or the class accounting.
func (sg *memSG) appendRec(o int, fp uint64, key, value []byte) {
	size := setblock.EntrySize(len(key), len(value))
	addr, b := sg.alloc(recLink + size)
	setblock.AppendEntry(b[recLink:recLink], fp, key, value)
	h := &sg.heads[o]
	if h.count == 0 {
		h.first = addr
	} else {
		binary.LittleEndian.PutUint32(sg.rec(h.last), addr)
	}
	h.last = addr
	h.count++
	h.used += uint16(size)
	sg.used += size
	w1, m1, w2, m2 := presenceBits(o, fp)
	sg.present[w1] |= m1
	sg.present[w2] |= m2
}

// find walks set o's chain for (fp, key) and returns the record's address
// and its predecessor's (its own, for the set's first record).
func (sg *memSG) find(o int, fp uint64, key []byte) (prev, at uint32, ok bool) {
	h := &sg.heads[o]
	at = h.first
	prev = at
	for n := h.count; n > 0; n-- {
		r := sg.rec(at)
		ks := recLink + setblock.EntryOverhead
		if binary.LittleEndian.Uint64(r[recLink:]) == fp && int(r[recLink+8]) == len(key) &&
			string(r[ks:ks+len(key)]) == string(key) {
			return prev, at, true
		}
		prev, at = at, recLinkOf(r)
	}
	return 0, 0, false
}

// unlink drops the record at addr, whose predecessor in set o is prev,
// from the set's chain; its bytes turn dead.
func (sg *memSG) unlink(o int, prev, at uint32) {
	h := &sg.heads[o]
	r := sg.rec(at)
	size := recEntrySize(r)
	if at == h.first {
		h.first = recLinkOf(r)
	} else {
		binary.LittleEndian.PutUint32(sg.rec(prev), recLinkOf(r))
		if at == h.last {
			h.last = prev
		}
	}
	h.count--
	h.used -= uint16(size)
	sg.used -= size
	sg.live -= recLink + size
	sg.dead += recLink + size
}

// maybeCompact compacts the log once its dead bytes reach both the live
// bytes and two chunks: every set's live records are copied, in FIFO order
// and set by set, into fresh chunks, and the old ones go back to the pool.
// The gaps a compacted log leaves are each shorter than the record that
// opened the next chunk, so they stay below the live bytes and compaction
// never repeats at once.
func (sg *memSG) maybeCompact() {
	if sg.dead < sg.live || sg.dead < 2*sg.chunkSize {
		return
	}
	old := sg.chunks
	sg.chunks, sg.swap = sg.swap[:0], nil
	sg.tail, sg.live, sg.dead = 0, 0, 0
	for o := range sg.heads {
		h := &sg.heads[o]
		at := h.first
		for i := uint16(0); i < h.count; i++ {
			r := recIn(old, sg.shift, at)
			n := recLink + recEntrySize(r)
			addr, b := sg.alloc(n)
			copy(b, r[:n])
			if i == 0 {
				h.first = addr
			} else {
				binary.LittleEndian.PutUint32(sg.rec(h.last), addr)
			}
			h.last = addr
			at = recLinkOf(r)
		}
	}
	sg.releaseChunks(old)
	sg.swap = old[:0]
}

// remove deletes (fp, key) from set o if present.
func (sg *memSG) remove(o int, fp uint64, key []byte) bool {
	if !sg.mayHold(o, fp) {
		return false
	}
	prev, at, ok := sg.find(o, fp, key)
	if !ok {
		return false
	}
	sg.unlink(o, prev, at)
	sg.maybeCompact()
	return true
}

// decodeSet fills the empty set o of a fresh memSG from a serialized page
// image (snapshot restore). On error the set is left empty.
func (sg *memSG) decodeSet(o int, page []byte) error {
	blk, err := setblock.Parse(page, sg.pageSize)
	if err != nil {
		return err
	}
	blk.Range(func(_ int, e setblock.Entry) bool {
		sg.appendRec(o, e.FP, e.Key, e.Value)
		return true
	})
	return nil
}

// sacrifice evicts the oldest valued entries from set o until an entry of
// the given size fits, returning how many objects were evicted. Deletion
// tombstones are never sacrificed — dropping one early would resurrect the
// still-cached flash copy it shadows — so a tombstone-packed set may fail
// to yield room (the caller then falls back to flushing).
func (sg *memSG) sacrifice(o int, need int) int {
	h := &sg.heads[o]
	n := 0
	for sg.free(o) < need {
		prev, at := h.first, h.first
		i := uint16(0)
		for ; i < h.count; i++ {
			r := sg.rec(at)
			if binary.LittleEndian.Uint16(r[recLink+9:]) > 0 {
				break
			}
			prev, at = at, recLinkOf(r)
		}
		if i == h.count {
			break
		}
		sg.unlink(o, prev, at)
		n++
	}
	sg.maybeCompact()
	return n
}

// lookup searches set o. The value aliases the log.
func (sg *memSG) lookup(o int, fp uint64, key []byte) ([]byte, bool) {
	if !sg.mayHold(o, fp) {
		return nil, false
	}
	_, at, ok := sg.find(o, fp, key)
	if !ok {
		return nil, false
	}
	r := sg.rec(at)
	vs := recLink + setblock.EntryOverhead + len(key)
	ve := vs + int(binary.LittleEndian.Uint16(r[recLink+9:]))
	return r[vs:ve:ve], true
}

// rangeSet calls fn for set o's entries in FIFO order until fn returns
// false. Entries alias the log; fn must not mutate the memSG.
func (sg *memSG) rangeSet(o int, fn func(e setblock.Entry) bool) {
	h := &sg.heads[o]
	at := h.first
	for n := h.count; n > 0; n-- {
		r := sg.rec(at)
		e, _, _ := setblock.DecodeEntry(r, recLink)
		if !fn(e) {
			return
		}
		at = recLinkOf(r)
	}
}

// appendSet serializes set o onto dst as the page image setblock.Block's
// AppendTo writes for the same entries — header, entries in FIFO order,
// zeros to the page's end — and returns the extended slice.
func (sg *memSG) appendSet(o int, dst []byte) []byte {
	h := &sg.heads[o]
	end := len(dst) + sg.pageSize
	dst = binary.LittleEndian.AppendUint16(dst, h.count)
	dst = binary.LittleEndian.AppendUint16(dst, h.used)
	at := h.first
	for n := h.count; n > 0; n-- {
		r := sg.rec(at)
		dst = append(dst, r[recLink:recLink+recEntrySize(r)]...)
		at = recLinkOf(r)
	}
	dst = slices.Grow(dst, end-len(dst))
	clear(dst[len(dst):end])
	return dst[:end]
}

// setCount is set o's entry count.
func (sg *memSG) setCount(o int) int { return int(sg.heads[o].count) }

// objCount returns the total number of entries across all sets.
func (sg *memSG) objCount() int {
	n := 0
	for i := range sg.heads {
		n += int(sg.heads[i].count)
	}
	return n
}
