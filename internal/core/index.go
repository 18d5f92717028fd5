package core

import (
	"fmt"
	"math/bits"
	"slices"

	"nemo/internal/bloom"
)

// This file holds the steady-state in-memory index layer, laid out to be
// nearly invisible to the garbage collector (see doc.go, "Memory layout").
// One flashSG struct per on-flash SG, and otherwise one arena and
// pointer-free slices:
//
//   - flashSG: one struct per SG, made at seal (or restore), naming its one
//     data zone. A shard holds at most DataZones + SGsPerIndexGroup of them;
//     a retired group's members lose their meta and are left to the GC.
//   - pageArena (inside pbfgCache, one per filter width in use): cached PBFG
//     pages are slots of large slabs, each slot the bytes a page of that
//     width carries. Each sealed group lists the slot of every page it has
//     cached, and the FIFO queue names pages by (group id, set), so neither
//     holds a pointer; put copies the page bytes in, and there are no
//     per-page objects.
//   - meta: each SG's per-set metadata — slot-base prefix sums and the
//     hotness bitmap — is ONE exact-size []uint32, made at flush commit (or
//     restore), when the object count is known, and left to the GC when the
//     SG's group is dropped. It holds no pointer, so the collector never
//     scans it.
//
// Page-arena recycling is immediate: freed slots go straight back to the
// free list. That is safe because the concurrent read path never
// dereferences arena memory outside the lock — its plan phase Bloom-tests
// the filters in place and precomputes the page addresses it will read while
// still holding the lock (readpath.go), and takes no filter byte with it, so
// a slot reused mid-attempt can corrupt nothing the attempt still looks at
// (stale attempts are discarded by the epoch check regardless).

// flashSG describes one immutable on-flash Set-Group in the FIFO pool: one
// device zone, set offset o on its page o. meta is made at flush commit.
type flashSG struct {
	id    uint64 // monotonically increasing flush sequence number
	zone  int    // the data zone holding the SG
	group *idxGroup
	slot  int // position of this SG's filters within the group

	// meta packs the SG's per-set metadata into one slice:
	//
	//	[0:n+1]      prefix sums over the per-set object counts at flush
	//	             time: set o's slots are bitmap positions [o] to [o+1]
	//	[n+1:]       1-bit-per-object hotness bitmap as uint32 words, sized
	//	             2*ceil(objCount/64) so snapshot conversion to the NEMO1
	//	             []uint64 encoding is a word-pair repack
	//
	// where n == nsets. The bitmap region is always materialized; hasBits
	// preserves the old "allocated lazily on first setBit" observable state
	// (bit() is false and cooling is a no-op until then, and checkpoints
	// emit a Bits section only for SGs that were ever marked).
	meta    []uint32
	nsets   int
	hasBits bool

	objCount int
	dead     bool
}

// setCount returns the number of objects flushed into set o.
func (sg *flashSG) setCount(o int) int { return int(sg.base(o+1) - sg.base(o)) }

// base returns the bitmap position of set o's first slot; base(nsets) is the
// object count. The prefix sums are computed when meta is made (flush commit
// or snapshot restore), never lazily on the probe path.
func (sg *flashSG) base(o int) uint32 { return sg.meta[o] }

// hotWords returns the bitmap region of meta (2*ceil(objCount/64) words).
func (sg *flashSG) hotWords() []uint32 { return sg.meta[sg.nsets+1:] }

func (sg *flashSG) setBit(o, s int) {
	sg.hasBits = true
	i := sg.base(o) + uint32(s)
	sg.hotWords()[i>>5] |= 1 << (i & 31)
}

func (sg *flashSG) bit(o, s int) bool {
	if !sg.hasBits {
		return false
	}
	i := sg.base(o) + uint32(s)
	return sg.hotWords()[i>>5]&(1<<(i&31)) != 0
}

// clearSet clears all hotness bits of set o (cooling, §4.4).
func (sg *flashSG) clearSet(o int) {
	if !sg.hasBits {
		return
	}
	hot := sg.hotWords()
	for i := sg.base(o); i < sg.base(o+1); i++ {
		hot[i>>5] &^= 1 << (i & 31)
	}
}

// carveMeta makes sg.meta for its final objCount from counts (objects per
// set, len nsets): the prefix sums, then a zeroed hotness region. Flush
// commit passes the kit's counts, snapshot restore the checkpoint's — the
// two places an SG's counts become final. The capacity is the heap size
// class the slice occupies, which is what the resident ledger counts.
func carveMeta[T uint16 | uint32](sg *flashSG, counts []T) {
	n := sg.nsets + 1 + 2*((sg.objCount+63)/64)
	m := slices.Grow([]uint32(nil), n)[:n]
	var run uint32
	for o, k := range counts[:sg.nsets] {
		m[o] = run
		run += uint32(k)
	}
	m[sg.nsets] = run
	sg.meta = m
}

// snapMeta unpacks meta into the NEMO1 field types: uint16 set counts and,
// for an SG that was ever marked, uint64 hot words (a bit-for-bit repack of
// the word pairs). loadBits is its inverse for the bitmap.
func (sg *flashSG) snapMeta() (counts []uint16, bits []uint64) {
	counts = make([]uint16, sg.nsets)
	for o := range counts {
		counts[o] = uint16(sg.setCount(o))
	}
	if sg.hasBits {
		hw := sg.hotWords()
		bits = make([]uint64, (sg.objCount+63)/64)
		for w := range bits {
			bits[w] = uint64(hw[2*w]) | uint64(hw[2*w+1])<<32
		}
	}
	return counts, bits
}

func (sg *flashSG) loadBits(bits []uint64) {
	hw := sg.hotWords()
	for w, v := range bits {
		hw[2*w], hw[2*w+1] = uint32(v), uint32(v>>32)
	}
	sg.hasBits = true
}

// idxGroup aggregates the set-level Bloom filters of up to SGsPerIndexGroup
// SGs (§4.3), one bit-sliced PBFG page per intra-SG offset (bloom.GroupMask:
// row r of a page holds bit r of every member's filter, so one probe set tests
// the whole group in k row loads). While unsealed, the pages live in the
// in-memory index-group buffer; sealing appends them, as they are, to an
// index-pool zone.
type idxGroup struct {
	id     int
	zone   int // index zone, once sealed
	sealed bool
	// bfBits is the width of every member's filters, fixed when the first
	// member commits (filterBits over its set counts) and 0 until then: a
	// bit-sliced page needs one width for all its columns.
	bfBits    int
	members   []*flashSG
	liveCount int
	// live has bit s set while member s is published and not evicted
	// (liveCount is its population count): the mask every group test starts
	// from, so a dead member — or the slot of an in-flight flush — can never
	// become a candidate.
	live uint64
	// buf is the unsealed group's SetsPerSG pages, pageBytes each, made when
	// the first member commits and dropped wholesale at seal. It is written
	// only under the lock, by the one flush in flight (mergeFilters at
	// commit); the flush owner's unlocked build phase may therefore read it,
	// and builds its own member's filters in its flush kit, outside it.
	buf []byte
	// cached is the sealed group's index-cache entry: per set offset, the
	// page-arena slot holding its cached PBFG page, or -1. Made at seal,
	// released when the group retires (pbfgCache.dropGroup).
	cached []int32
}

// groupAt resolves id through groups, the dense, id-ordered group list: nil
// when no group in it has that id.
func groupAt(groups []*idxGroup, id int) *idxGroup {
	if len(groups) == 0 || id < groups[0].id || id-groups[0].id >= len(groups) {
		return nil
	}
	return groups[id-groups[0].id]
}

// filterBits is the width rule: the filters of a group whose first member's
// fullest set holds n objects get bloom.SizeBits(n, BloomFPR) bits — a
// multiple of 64 — capped at the widest filter SGsPerIndexGroup columns of
// fit one page.
func (c *Cache) filterBits(n int) int {
	return min(bloom.SizeBits(n, c.cfg.BloomFPR), c.maxBFBits)
}

// pageBytes is the length of one of g's PBFG pages: SGsPerIndexGroup filters
// of its width. The rest of a device page is slack.
func (c *Cache) pageBytes(g *idxGroup) int {
	return g.bfBits / 8 * c.cfg.SGsPerIndexGroup
}

// bufPage returns the unsealed group's PBFG page for set offset o.
func (c *Cache) bufPage(g *idxGroup, o int) []byte {
	n := c.pageBytes(g)
	return g.buf[o*n : (o+1)*n]
}

// mergeFilters ORs member slot s's filters — SetsPerSG serialized filters of
// the group's width, concatenated by set offset — into the unsealed group's
// pages, making the buffer at the first member's merge.
func (c *Cache) mergeFilters(g *idxGroup, s int, bfs []byte) {
	if g.buf == nil {
		g.buf = make([]byte, c.setsPerSG*c.pageBytes(g))
	}
	nb := g.bfBits / 8
	for o := 0; o < c.setsPerSG; o++ {
		bloom.MergeColumn(c.bufPage(g, o), c.cfg.SGsPerIndexGroup, s, bfs[o*nb:(o+1)*nb])
	}
}

// pbfgKey names one cached PBFG page in the FIFO queue: the filters of
// intra-SG offset set across index group group's SGs. It holds no pointer;
// the group resolves through the dense, id-ordered group list.
type pbfgKey struct {
	group, set int32
}

// pageSlabPages is the page-arena allocation granularity.
const pageSlabPages = 16

// pageArena stores cached PBFG pages of one filter width as fixed slots of
// large slabs, each slot the bytes such a page carries, not the device page
// it was read from. Slots are identified by index and recycled immediately on
// release: readers test a page's filters while still holding the lock
// (readpath.go planGetLocked), so no slice into a slot ever outlives the
// critical section that looked it up.
type pageArena struct {
	slotSize int
	slabs    [][]byte
	free     []int32
}

func (a *pageArena) alloc() int32 {
	if len(a.free) == 0 {
		base := int32(len(a.slabs) * pageSlabPages)
		a.slabs = append(a.slabs, make([]byte, pageSlabPages*a.slotSize))
		for i := pageSlabPages - 1; i >= 0; i-- {
			a.free = append(a.free, base+int32(i))
		}
	}
	s := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return s
}

func (a *pageArena) page(slot int32) []byte {
	off := int(slot%pageSlabPages) * a.slotSize
	return a.slabs[slot/pageSlabPages][off : off+a.slotSize : off+a.slotSize]
}

func (a *pageArena) release(slot int32) {
	a.free = append(a.free, slot)
}

// pbfgCache is the FIFO in-memory index cache (§5.1: "The index cache is
// FIFO-style, which reduces lock contention ... compared to LRU").
//
// It is addressed through the groups: a sealed group's cached slot list
// names the slot holding each cached page in the arena of the group's
// filter width, so a lookup is one load. put copies the caller's page bytes
// into a slot, and page slices handed out by get are valid only under the
// lock (slots recycle on eviction — the concurrent read path tests them at
// plan time, readpath.go). The queue holds exactly the cached pages, oldest
// first: eviction pops its head, and a retiring group takes its entries out
// with it (dropGroup).
type pbfgCache struct {
	capacity int
	count    int
	// arenas[w] holds the pages of groups with filters of 64·(w+1) bits; an
	// arena whose width no group has used holds no slab.
	arenas []pageArena

	queue []pbfgKey // FIFO of the cached pages; eviction order
	head  int       // index of the oldest entry within queue

	lookups uint64 // sealed-group PBFG queries
	misses  uint64 // queries requiring a flash fetch
}

// newPBFGCache makes an empty cache of capacity pages of members filters
// each, at most maxBits wide: one arena per width, whose slot is exactly what
// put copies of a page of that width.
func newPBFGCache(capacity, members, maxBits int) *pbfgCache {
	pc := &pbfgCache{capacity: max(capacity, 0), arenas: make([]pageArena, maxBits/64)}
	for w := range pc.arenas {
		pc.arenas[w].slotSize = (w + 1) * 8 * members
	}
	return pc
}

// arena is the page arena of g's filter width.
func (pc *pbfgCache) arena(g *idxGroup) *pageArena { return &pc.arenas[g.bfBits/64-1] }

// slabBytes is the arenas' resident size.
func (pc *pbfgCache) slabBytes() (n int) {
	for _, a := range pc.arenas {
		n += len(a.slabs) * pageSlabPages * a.slotSize
	}
	return n
}

// uncached is a sealed group's fresh slot list: n set offsets, none cached.
func uncached(n int) []int32 { return slices.Repeat([]int32{-1}, n) }

// get returns sealed group g's cached page for set o.
func (pc *pbfgCache) get(g *idxGroup, o int) ([]byte, bool) {
	if s := g.cached[o]; s >= 0 {
		return pc.arena(g).page(s), true
	}
	return nil, false
}

// put caches a copy of page's first bytes — a page of g's width — as sealed
// group g's page for set o, evicting FIFO as needed; groups is the live group
// list the queue's entries resolve through. A page already cached is left
// untouched.
func (pc *pbfgCache) put(groups []*idxGroup, g *idxGroup, o int, page []byte) {
	if pc.capacity == 0 || g.cached[o] >= 0 {
		return
	}
	for pc.count >= pc.capacity {
		k := pc.queue[pc.head]
		pc.head++
		old := groups[int(k.group)-groups[0].id]
		pc.arena(old).release(old.cached[k.set])
		old.cached[k.set] = -1
		pc.count--
		pc.maybeCompact()
		pc.shrink(groups, pc.arena(old))
	}
	a := pc.arena(g)
	slot := a.alloc()
	copy(a.page(slot), page)
	g.cached[o] = slot
	pc.count++
	pc.queue = append(pc.queue, pbfgKey{group: int32(g.id), set: int32(o)})
}

// dropGroup releases a retiring group's cached pages and filters its entries
// out of the queue, in one pass over each; groups is the live group list,
// g still in it.
func (pc *pbfgCache) dropGroup(groups []*idxGroup, g *idxGroup) {
	for _, s := range g.cached {
		if s >= 0 {
			pc.arena(g).release(s)
			pc.count--
		}
	}
	g.cached = nil
	kept := pc.queue[:0]
	for _, k := range pc.queue[pc.head:] {
		if int(k.group) != g.id {
			kept = append(kept, k)
		}
	}
	pc.queue, pc.head = kept, 0
	pc.shrink(groups, pc.arena(g))
}

// shrink gives arena a's last slab back to the GC while two slabs' worth of
// its slots are free. Slots of a width recycle only into pages of that
// width, so once the groups of a width are rarer than they were, their pages
// age out of the queue and nothing takes the slots; without this each
// width in use would keep its arena at its high-water mark. The pages still
// in the last slab move to free slots below it, and their groups' slot lists
// follow (found through the queue, which names every cached page). The two-
// slab threshold leaves at least a slab free after a shrink, so a shrink and
// the next slab allocation are a slab's worth of puts and releases apart.
func (pc *pbfgCache) shrink(groups []*idxGroup, a *pageArena) {
	for len(a.free) >= 2*pageSlabPages {
		base := int32((len(a.slabs) - 1) * pageSlabPages)
		free := a.free[:0]
		for _, s := range a.free {
			if s < base {
				free = append(free, s)
			}
		}
		a.free = free
		for _, k := range pc.queue[pc.head:] {
			g := groups[int(k.group)-groups[0].id]
			if s := g.cached[k.set]; s >= base && pc.arena(g) == a {
				to := a.free[len(a.free)-1]
				a.free = a.free[:len(a.free)-1]
				copy(a.page(to), a.page(s))
				g.cached[k.set] = to
			}
		}
		a.slabs[len(a.slabs)-1] = nil
		a.slabs = a.slabs[:len(a.slabs)-1]
	}
}

func (pc *pbfgCache) maybeCompact() {
	if pc.head > len(pc.queue)/2 && pc.head > 1024 {
		n := copy(pc.queue, pc.queue[pc.head:])
		pc.queue = pc.queue[:n]
		pc.head = 0
	}
}

// fetchPBFG returns sealed group g's PBFG page for set o on behalf of the
// write-path shadow checks (deletion and writeback), consulting the index
// cache or flash. Flash reads are still accounted, but not as index-cache
// traffic — the Figure 19b miss ratio counts only lookup-path queries,
// which the read path charges itself during its plan phase (readpath.go).
// A flash fetch lands in c.fetchBuf (mu-guarded scratch); the returned
// slice, pageBytes(g) long either way, is valid until the next fetchPBFG
// call.
func (c *Cache) fetchPBFG(g *idxGroup, o int) ([]byte, error) {
	if page, ok := c.icache.get(g, o); ok {
		return page, nil
	}
	if _, err := c.dev.ReadPage(c.dev.PageAddr(g.zone, o), c.fetchBuf); err != nil {
		return nil, fmt.Errorf("core: reading PBFG page: %w", err)
	}
	c.stats.FlashReadOps++
	c.stats.FlashBytesRead += uint64(c.pageSize)
	page := c.fetchBuf[:c.pageBytes(g)]
	c.icache.put(c.groups, g, o, page)
	return page, nil
}

// walkCandidates is the one group walk: it visits, newest group first and
// newest member first, every live member with id ≥ minID whose filter at set
// offset o admits the probe set ps. A sealed group's page comes from fetch
// (the write path's fetchPBFG, or the read plan's index-cache lookup); a nil
// page means it is not in memory, and the group's members are then visited
// untested. visit returns false to end the walk.
func (c *Cache) walkCandidates(o int, ps *bloom.ProbeSet, minID uint64,
	fetch func(g *idxGroup, o int) ([]byte, error), visit func(m *flashSG, tested bool) bool) error {
	for gi := len(c.groups) - 1; gi >= 0; gi-- {
		g := c.groups[gi]
		if g.liveCount == 0 {
			continue
		}
		if g.members[len(g.members)-1].id < minID {
			break // groups are ordered; nothing older can qualify
		}
		var page []byte
		if !g.sealed {
			page = c.bufPage(g, o)
		} else if p, err := fetch(g, o); err != nil {
			return err
		} else {
			page = p
		}
		mask, tested := g.live, page != nil
		if tested {
			mask = bloom.GroupMask(page, c.cfg.SGsPerIndexGroup, g.bfBits, ps, mask)
		}
		for mask != 0 {
			s := bits.Len64(mask) - 1
			mask &^= 1 << uint(s)
			m := g.members[s]
			if m.id < minID {
				break // so are a group's members
			}
			if !visit(m, tested) {
				return nil
			}
		}
	}
	return nil
}

// pbfgResident reports whether the PBFG covering (group, set o) is in
// memory — cached, or still in the unsealed index-group buffer. This is the
// recency half of the hybrid hotness signal (§4.4) and must not trigger I/O.
func (c *Cache) pbfgResident(g *idxGroup, o int) bool {
	if !g.sealed {
		return true
	}
	return g.cached[o] >= 0
}
