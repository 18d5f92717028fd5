package core

import "nemo/internal/setblock"

// memSG is a mutable in-memory Set-Group: SetsPerSG page-sized set blocks
// aggregating incoming objects until flush (§4.1 "an SG begins as a mutable
// in-memory structure"). The blocks are a value slice whose storage is
// carved from one slab, so a memSG is four heap objects regardless of
// SetsPerSG. A shard owns the Config.MemSGs in its memq; the rear a seal rotates
// in comes from the flush kit, where the flushed front replaces it.
//
// Absent before append: a set never holds two entries for one key. insert
// appends without searching, so every caller proves the key absent from the
// set first, under the same hold of the shard lock — placeLocked removes the
// key from every memq SG (again after each flush it waits on, which releases
// the lock), and eviction writeback inserts only what shadowedByNewer just
// found in no in-memory SG.
type memSG struct {
	sets []setblock.Block
	slab []byte // every set's backing, carved per slot
	// present is one word per set: bit fp>>58 is set when an entry with that
	// fingerprint is appended and cleared only by reset, so a clear bit proves
	// absence and lookup/remove answer without touching the page; a bit left
	// behind by a removed or sacrificed entry only costs the walk it would
	// have cost anyway. A full set of ~40 entries leaves about half its bits
	// clear, a filling one nearly all of them.
	present []uint64
	// newBytes counts user bytes inserted into this SG, including objects
	// later sacrificed by delayed flushing (the paper's WA denominator,
	// §5.2); writeback bytes are tracked separately and excluded.
	newBytes uint64
	wbBytes  uint64
	newObjs  int
	used     int // Σ set Used(), maintained incrementally
}

func newMemSG(setsPerSG, setSize int) *memSG {
	per := setSize - setblock.HeaderSize
	sg := &memSG{
		sets:    make([]setblock.Block, setsPerSG),
		slab:    make([]byte, setsPerSG*per),
		present: make([]uint64, setsPerSG),
	}
	for i := range sg.sets {
		sg.sets[i].InitCarved(setSize, sg.slab[i*per:i*per:(i+1)*per])
		sg.used += sg.sets[i].Used()
	}
	return sg
}

// reset returns the memSG to its freshly-built state, keeping the slab.
func (sg *memSG) reset() {
	sg.newBytes, sg.wbBytes, sg.newObjs, sg.used = 0, 0, 0, 0
	clear(sg.present)
	for i := range sg.sets {
		sg.sets[i].Reset()
		sg.used += sg.sets[i].Used()
	}
}

// fillRate returns the SG's aggregate fill rate in [0, 1].
func (sg *memSG) fillRate() float64 {
	if len(sg.sets) == 0 {
		return 0
	}
	return float64(sg.used) / float64(len(sg.sets)*sg.sets[0].Size())
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

// presenceBit is the bit of a set's presence word that fp maps to.
func presenceBit(fp uint64) uint64 { return 1 << (fp >> 58) }

// insert appends the entry to set o if it fits, updating accounting per the
// insert's class. The key must be absent from the set (see memSG).
func (sg *memSG) insert(o int, fp uint64, key, value []byte, class insClass) bool {
	if !sg.sets[o].Append(fp, key, value) {
		return false
	}
	sg.present[o] |= presenceBit(fp)
	sg.used += setblock.EntrySize(len(key), len(value))
	switch class {
	case insWriteback:
		sg.wbBytes += uint64(len(key) + len(value))
	case insNew:
		sg.newBytes += uint64(len(key) + len(value))
		sg.newObjs++
	}
	return true
}

// canFit reports whether set o has room for the entry.
func (sg *memSG) canFit(o, keyLen, valLen int) bool {
	return sg.sets[o].CanFit(keyLen, valLen)
}

// remove deletes (fp, key) from set o if present.
func (sg *memSG) remove(o int, fp uint64, key []byte) bool {
	if sg.present[o]&presenceBit(fp) == 0 {
		return false
	}
	blk := &sg.sets[o]
	before := blk.Used()
	ok := blk.Remove(fp, key)
	sg.used += blk.Used() - before
	return ok
}

// decodeSet replaces set o with a serialized page image (snapshot restore),
// rebuilding its presence word from the decoded entries.
func (sg *memSG) decodeSet(o int, page []byte) error {
	blk := &sg.sets[o]
	sg.used -= blk.Used()
	err := blk.DecodeFrom(page)
	sg.used += blk.Used()
	sg.present[o] = 0
	blk.Range(func(_ int, e setblock.Entry) bool {
		sg.present[o] |= presenceBit(e.FP)
		return true
	})
	return err
}

// sacrifice evicts the oldest valued entries from set o until an entry of
// the given size fits, returning how many objects were evicted. Deletion
// tombstones are never sacrificed — dropping one early would resurrect the
// still-cached flash copy it shadows — so a tombstone-packed set may fail
// to yield room (the caller then falls back to flushing).
func (sg *memSG) sacrifice(o int, need int) int {
	blk := &sg.sets[o]
	n := 0
	for blk.Free() < need {
		before := blk.Used()
		if _, ok := blk.EvictOldestValued(); !ok {
			break
		}
		sg.used += blk.Used() - before
		n++
	}
	return n
}

// lookup searches set o.
func (sg *memSG) lookup(o int, fp uint64, key []byte) ([]byte, bool) {
	if sg.present[o]&presenceBit(fp) == 0 {
		return nil, false
	}
	v, _, ok := sg.sets[o].Lookup(fp, key)
	return v, ok
}

// objCount returns the total number of entries across all sets.
func (sg *memSG) objCount() int {
	n := 0
	for i := range sg.sets {
		n += sg.sets[i].Count()
	}
	return n
}
