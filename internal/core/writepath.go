package core

// The concurrent write path: flush, group-seal, and eviction I/O happen
// outside the shard mutex, completing the plan/IO/commit architecture the
// read path introduced (readpath.go) across both halves of the cache.
//
// A flush runs in three phases, all executed by one owner goroutine (the
// inserting worker on the synchronous path, a flusher-pool goroutine on the
// SetAsync path):
//
//   - seal (locked): everything whose outcome depends on shared mutable
//     state is decided under the lock. The eviction victim (the pool head)
//     is popped and marked dead; its data zone — and, when its index group
//     retires with it, the group's index zone — return to the free lists;
//     the flush's data zone (and, when this SG completes its index group,
//     the group's index zone) is reserved from those lists;
//     the SG id is assigned and nextSGID advances; and the front in-memory SG is
//     detached from memq into c.sealed — immutable from here on except for
//     the writeback survivors the owner itself inserts under the lock —
//     with a fresh rear rotated in so inserts keep landing while the flush
//     is in flight. Bumping nextSGID (and, with eviction, moving the pool
//     head) is the SG-epoch advance: every optimistic reader that planned
//     before the seal fails commit validation and replans, so no reader
//     ever trusts bytes from a zone this flush is about to reset or
//     rewrite.
//   - build + I/O (unlocked, with locked interludes): the victim's set pages
//     come back from flash a window at a time, each window one unlocked
//     ReadPages followed by a short locked interlude that runs that
//     window's hotness/shadow liveness filtering and inserts its surviving
//     objects into the sealed SG (the filters consult memq, the unsealed
//     group buffers, and the index cache, all lock-guarded). The lock may
//     drop between windows because nothing another goroutine does there
//     can touch what the next window reads or filters: the victim is
//     already dead, so no reader plans against it, and its zones are
//     erased only by this flush — the only one in flight on this cache.
//     Then — unlocked again — the freed zones are erased, the sealed SG's
//     set blocks are serialized a window at a time into the kit's window
//     and each window appended to the reserved data zone with one Append,
//     the per-set Bloom filters are built in the owner's flush kit, and a
//     completing index group's PBFG pages — the group buffer's, each copied
//     and given this member's column — are appended to the reserved index
//     zone the same way. A window is flushWindow bytes, so a 256-page SG is
//     8 appends and at most 8 read-back calls, writing the pages, zones and
//     order page-at-a-time calls would (what the determinism pins below
//     rest on). No foreground GET or SET on the
//     shard waits on any of this device I/O.
//   - commit (locked): the flashSG publishes into its index group and the
//     FIFO pool, its filters merge into the group buffer (the readers' copy,
//     so only under the lock), the write-side counters apply, and the
//     cooling pass runs if due. Readers that planned during the build are
//     unaffected: their snapshots never referenced the unpublished SG, and
//     the sealed SG they could probe in memory is dropped in the same
//     critical section that makes the flash copy discoverable.
//
// Readers and the sealed SG: between seal and commit the flushing SG's
// objects exist only in c.sealed. The read plan (planGetLocked) probes it
// after memq — any memq copy of the same key was inserted after the seal
// and is therefore newer — and the write-side shadow checks
// (shadowedByNewer, deleteLocked) treat it as "will be on flash": a Delete
// racing a flush still plants its tombstone, and writeback never
// resurrects a version the sealed SG shadows. Driven serially the sealed
// window is never observable (the three phases run back to back on the
// caller with nothing interleaved), which is what makes a serial replay
// deterministic — same zones claimed in the same order, same pages appended
// with the same contents, same counter totals on every run — and is what
// the shards=1 equivalence pins and the NEMO1 golden rest on.
//
// Mutual exclusion: at most one flush is in flight per cache
// (c.flushInFlight; concurrent flushers wait on c.flushCond). Nothing the
// owner runs under the lock starts another flush, so the owner never waits
// on its own flush.
//
// Working memory: what a flush needs beyond the SG it writes is one
// flushKit — the window and filter scratch, in the main, and the empty rear
// its seal rotates in — held from the flush's start to its end: resident
// per flush in flight, not per shard. The flushed front's log chunks go
// back to the shared chunk list at commit, before the kit does.
//
// Failure: a device error mid-flush cannot wedge the cache. The owner
// erases the partially written zones, returns every zone this flush
// touched to its free list, drops the sealed SG (its objects count as
// evictions — a cache may always miss), increments Stats.WriteErrors, and
// surfaces the error: inline on the synchronous path, via the flusher
// pool's deferred error (Drain/Close) on the async path — and in both
// cases immediately in the WriteErrors counter the replay tables print.

import (
	"fmt"
	"sync"

	"nemo/internal/bloom"
	"nemo/internal/setblock"
)

// flushWindow is the byte size of a flush's staging buffer and so of its
// largest device call: set pages, PBFG pages and victim read-back all move
// through it, one Append or ReadPages per window — 32 pages at the 4 KiB
// default page, 8 calls for a 256-page SG — an eighth of the SG it moves.
const flushWindow = 128 << 10

// flushKit is the working memory of one flush: the empty in-memory SG the
// seal rotates into memq as the new rear (the flushed front, reset, takes
// its place at commit or recovery, so a returned kit always carries one:
// heads and presence words, no chunks) and the owner-exclusive build
// scratch. Only spare is touched under the shard lock.
type flushKit struct {
	spare    *memSG         // nil between seal and commit/recovery; never holds a chunk
	window   []byte         // staging for one device call: set, PBFG or victim pages
	winPages [][]byte       // window cut into its page-sized slices, for ReadPages
	winAddrs []int          // device pages of the window's victim read
	filter   *bloom.Filter  // per-set filter builder, as wide as the SG's group's filters
	bfs      []byte         // the SG's SetsPerSG filters, serialized by set offset
	bfBits   int            // their width: the group's, or the one this SG sets for it
	readSets []int          // victim set offsets scheduled for read-back
	counts   []uint32       // per-set object counts of the SG being built
	parseBlk setblock.Block // eviction read-back decode scratch
	scratch  uint64         // bytes of all but spare, fixed at build
}

// newFlushKit builds a kit for c's geometry, the same on every shard.
func (c *Cache) newFlushKit() *flushKit {
	pages := max(1, flushWindow/c.pageSize)
	k := &flushKit{
		spare:    newMemSG(c.setsPerSG, c.pageSize, c.kits),
		window:   make([]byte, pages*c.pageSize),
		winPages: make([][]byte, pages),
		winAddrs: make([]int, pages),
		filter:   bloom.NewBits(c.maxBFBits, c.bfK),
		bfs:      make([]byte, c.setsPerSG*c.maxBFBits/8),
		readSets: make([]int, 0, c.setsPerSG),
		counts:   make([]uint32, c.setsPerSG),
		parseBlk: *setblock.New(c.pageSize),
	}
	for i := range k.winPages {
		k.winPages[i] = k.window[i*c.pageSize : (i+1)*c.pageSize]
	}
	// The window and its two indexes (a slice header and an int a page), the
	// filter slab (room for the widest filters), the decode page, and per set
	// an int and a uint32; the filter builder's page-limit filter (80 bytes
	// at the default 4 KiB page and 50 members) is left out.
	k.scratch = uint64(cap(k.window) + pages*(24+8) + cap(k.bfs) + c.pageSize + c.setsPerSG*(8+4))
	return k
}

// bytes is the kit's resident size. The caller holds the lock that guards
// spare: the shard's while the kit is in a flush, the pool's while idle.
func (k *flushKit) bytes() uint64 {
	if k.spare == nil {
		return k.scratch
	}
	return k.scratch + k.spare.bytes()
}

// kitPool is the free list of idle flush kits and of idle memSG log
// chunks; NewSharded shares one across its shards as it shares the
// flusherPool.
// It keeps at most keep = max(1, Config.Flushers) idle kits and drops the
// rest to the GC: that many flushes run at once in steady state (the flusher
// goroutines, or the one inline caller), so more would only pin a burst's
// peak. Resident flush memory is min(flushes in flight, keep) × (window +
// filter scratch + an empty SG's heads), whatever the shard count.
// The chunk list keeps at most one SG's bytes idle and drops the rest: a
// commit returns the flushed front's chunks and the shards' inserts take
// them back, so most chunks are reused rather than collected and made
// again.
type kitPool struct {
	mu     sync.Mutex
	idle   []*flushKit
	keep   int
	chunks [][]byte // idle log chunks, all of the shards' one size
}

// take returns an idle kit, or nil: the caller builds one, off this lock.
func (p *kitPool) take() (k *flushKit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		k, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	return k
}

func (p *kitPool) put(k *flushKit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < p.keep {
		p.idle = append(p.idle, k)
	}
}

// takeChunk returns an idle log chunk of size bytes, or a new one.
func (p *kitPool) takeChunk(size int) (c []byte) {
	p.mu.Lock()
	if n := len(p.chunks); n > 0 {
		c, p.chunks[n-1], p.chunks = p.chunks[n-1], nil, p.chunks[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		c = make([]byte, size)
	}
	return c
}

// putChunks keeps chunks on the list up to keep idle ones; the caller drops
// its references to all of them.
func (p *kitPool) putChunks(cs [][]byte, keep int) {
	if len(cs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := min(len(cs), keep-len(p.chunks)); n > 0 {
		p.chunks = append(p.chunks, cs[:n]...)
	}
}

// idleBytes is the resident size of the kits and of the chunks on the list.
func (p *kitPool) idleBytes() (kits, chunks uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range p.idle {
		kits += k.bytes()
	}
	for _, c := range p.chunks {
		chunks += uint64(len(c))
	}
	return kits, chunks
}

// evictPlan is the seal phase's snapshot of one eviction: which victim set
// pages the unlocked pass reads back, and which zones the build pass must
// erase before any append could land on them — the victim's, and the
// retired group's.
type evictPlan struct {
	victim   *flashSG
	readSets []int     // ascending set offsets to read back (aliases the kit's)
	retired  *idxGroup // victim's group when it died with the victim, else nil
}

// flushFrontLocked flushes the front in-memory SG through the three-phase
// seal / build+I/O / commit protocol above. It is called with c.mu held
// and returns with it held; the lock is released during the build phase's
// device I/O so foreground traffic on the shard overlaps the SG write.
//
// If another goroutine's flush is already in flight, this call waits for
// it to finish and then returns WITHOUT flushing (flush coalescing): the
// caller's trigger observation predates a flush that has since rotated the
// queue, so flushing again would write the fresh, nearly-empty front —
// exactly the condition runDeferredFlush's trigger re-check exists to
// avoid. Callers that need room rather than a flush per se (the insert
// path) re-check their condition and call again, now unhindered; callers
// that must flush the current front regardless (Flush) wait out the
// in-flight flush themselves first.
func (c *Cache) flushFrontLocked() error {
	if c.flushInFlight {
		c.waitFlushIdleLocked()
		return nil
	}
	c.flushInFlight = true
	if c.kit = c.kits.take(); c.kit == nil {
		c.kit = c.newFlushKit()
	}
	err := c.flushOwner()
	c.kits.put(c.kit)
	c.kit = nil
	c.flushInFlight = false
	c.sealed = nil
	c.flushCond.Broadcast()
	return err
}

// waitFlushIdleLocked blocks (releasing c.mu via the cond) until no flush
// is in flight. What happens next is the caller's choice: trigger-driven
// callers coalesce, Flush flushes the current front, and the deferred-job
// runner re-checks its trigger.
func (c *Cache) waitFlushIdleLocked() {
	for c.flushInFlight {
		c.flushCond.Wait()
	}
}

// flushOwner runs the three phases on the owning goroutine. Entered and
// exited with c.mu held.
func (c *Cache) flushOwner() error {
	// ---- Phase 1: seal (locked) ----
	front := c.memq[0]
	var ev *evictPlan
	if len(c.freeDataZones) == 0 {
		var err error
		if ev, err = c.sealEvictLocked(); err != nil {
			return err
		}
	}
	zone, _ := popZone(&c.freeDataZones) // never empty: eviction freed one
	g := c.openGroup()
	willSeal := len(g.members)+1 == c.cfg.SGsPerIndexGroup
	idxZone := -1 // the index zone a sealing flush reserves
	if willSeal {
		var ok bool
		if idxZone, ok = popZone(&c.freeIndexZones); !ok {
			c.freeDataZones = append(c.freeDataZones, zone)
			c.abortEvictLocked(ev)
			c.eraseLocked(ev, -1, -1)
			return fmt.Errorf("core: no free index zones to seal group %d", g.id)
		}
	}
	sg := &flashSG{id: c.nextSGID, zone: zone, group: g, slot: len(g.members), nsets: c.setsPerSG}
	c.nextSGID++ // SG-epoch advance: in-flight optimistic readers will replan
	c.sealed = front
	copy(c.memq, c.memq[1:])
	c.memq[len(c.memq)-1], c.kit.spare = c.kit.spare, nil
	c.sacCount = 0

	// ---- Phase 2a: eviction read-back (unlocked) + liveness filter (locked), a window at a time ----
	if ev != nil {
		if err := c.evictLocked(ev, front); err != nil {
			return c.recoverFailedFlushLocked(ev, front, sg, idxZone, err)
		}
	}
	fill := front.fillRate() // writeback survivors included, as in the locked path

	// ---- Phase 2b: build (unlocked) ----
	c.mu.Unlock()
	buildErr := c.buildAndAppend(ev, front, sg, idxZone)
	c.mu.Lock()
	if buildErr != nil {
		return c.recoverFailedFlushLocked(ev, front, sg, idxZone, buildErr)
	}

	// ---- Phase 3: commit (locked) ----
	// The SG's counts are final: make its packed meta (slot bases, hotness
	// region). Readers never probe an SG before this publish, so the prefix
	// sums are always ready on the probe path.
	carveMeta(sg, c.kit.counts)
	zoneBytes := uint64(c.setsPerSG * c.pageSize)
	c.stats.FlashBytesWritten += zoneBytes
	c.stats.DeviceBytesWritten += zoneBytes
	c.extra.DataBytesWritten += zoneBytes
	c.extra.SGsFlushed++
	c.extra.FillSum += fill
	c.extra.NewBytes += front.newBytes
	c.extra.NewObjs += uint64(front.newObjs)
	c.extra.WriteBackBytes += front.wbBytes
	c.bytesSinceCool += zoneBytes
	if sg.slot == 0 {
		g.bfBits = c.kit.bfBits // the first member fixes the group's width
	}
	g.members = append(g.members, sg)
	g.liveCount++
	g.live |= 1 << uint(sg.slot)
	c.pool = append(c.pool, sg)
	if willSeal {
		c.stats.FlashBytesWritten += zoneBytes
		c.stats.DeviceBytesWritten += zoneBytes
		c.extra.IndexBytesWritten += zoneBytes
		g.zone = idxZone
		g.sealed = true
		g.buf = nil // buffer released; filters now live in the index pool
		g.cached = uncached(c.setsPerSG)
	} else {
		// The one new piece of locked work: readers test the group buffer
		// under this lock, so the member's column can only land under it.
		c.mergeFilters(g, sg.slot, c.kit.bfs)
	}
	if c.bytesSinceCool >= uint64(c.cfg.CoolingWriteRatio*float64(c.poolCapacityBytes())) {
		c.coolLocked()
		c.bytesSinceCool = 0
	}
	// A committed flush is proof the device writes: end any failure run and
	// close a degraded window (health.go).
	c.breakerFlushOKLocked()
	// The flushed front's contents are on flash and published: its chunks
	// go back to the list, and it becomes the kit's spare, for the next
	// seal's rear rotation on whichever shard takes the kit. Readers hold no
	// references — value copies are taken under the lock — and this runs in
	// the same critical section that clears c.sealed.
	c.sealed = nil
	front.reset()
	c.kit.spare = front
	return nil
}

// sealEvictLocked is the locked half of eviction (operation ❸): pop the
// pool head, decide which of its set pages the unlocked pass reads back
// for hotness-aware writeback, and return its zone — plus its index
// group's, when the group dies with it — to the free lists. The zones are
// erased later, in the build phase; no other flush can claim them before
// this one commits.
func (c *Cache) sealEvictLocked() (*evictPlan, error) {
	if len(c.pool) == 0 {
		return nil, fmt.Errorf("core: pool empty but no free data zones")
	}
	victim := c.pool[0]
	c.pool[0] = nil // the backing array must not keep the victim alive
	c.pool = c.pool[1:]
	ev := &evictPlan{victim: victim}

	// A set page is read back only when a hotness signal could fire for it:
	// always when the victim carries an access bitmap, and otherwise only
	// when the set's PBFG is memory-resident (the recency half of the
	// hybrid signal, §4.4) — though with no bitmap nothing can test hot, so
	// those reads only feed the eviction counters, exactly as the locked
	// path behaved. With no bitmap the filter pass performs no shadow
	// checks, so the index cache cannot change between this snapshot and
	// the residency the filter would have observed.
	if c.cfg.Writeback && victim.objCount > 0 {
		sets := c.kit.readSets[:0]
		for o := 0; o < c.setsPerSG; o++ {
			if victim.setCount(o) == 0 {
				continue
			}
			if !victim.hasBits && !c.pbfgResident(victim.group, o) {
				continue
			}
			sets = append(sets, o)
		}
		c.kit.readSets = sets
		ev.readSets = sets
	}
	victim.dead = true
	victim.group.liveCount--
	victim.group.live &^= 1 << uint(victim.slot)
	if victim.group.liveCount == 0 && victim.group.sealed {
		ev.retired = victim.group
		c.freeIndexZones = append(c.freeIndexZones, victim.group.zone)
	}
	c.freeDataZones = append(c.freeDataZones, victim.zone)
	return ev, nil
}

// abortEvictLocked settles an eviction whose flush died before the
// liveness filter could run (a seal-phase zone-reservation failure): the
// victim is already popped and dead, so its objects count as evictions and
// a retired group's pages leave the index cache — the same bookkeeping
// evictLocked would have done, minus the read-back and writeback.
func (c *Cache) abortEvictLocked(ev *evictPlan) {
	if ev == nil {
		return
	}
	c.stats.Evictions += uint64(ev.victim.objCount)
	if ev.retired != nil {
		c.icache.dropGroup(c.groups, ev.retired)
		c.dropDeadGroups()
	}
}

// evictLocked is the rest of eviction (operation ❸): the victim's planned
// set pages come back a window at a time — one unlocked ReadPages, then that
// window's liveness filtering under the lock: per entry, the hybrid hotness
// test, the newer-copy shadow check (which may fetch PBFG pages), and the
// writeback insertion into the sealed SG dst. Entered and exited with c.mu
// held. On every exit — error paths included — each of the victim's objects
// ends up accounted exactly once (written back, or counted in Evictions)
// and a retired index group's pages leave the index cache.
func (c *Cache) evictLocked(ev *evictPlan, dst *memSG) error {
	victim := ev.victim
	// resolved counts victim objects already dispatched (evicted or written
	// back); finish settles the remainder as evictions — the whole victim
	// is leaving flash no matter how the filtering ends — and retires the
	// group, so no exit path can leak objects from the accounting.
	resolved := 0
	finish := func(err error) error {
		c.stats.Evictions += uint64(victim.objCount - resolved)
		if ev.retired != nil {
			c.icache.dropGroup(c.groups, ev.retired)
			c.dropDeadGroups()
		}
		return err
	}
	if !c.cfg.Writeback || victim.objCount == 0 {
		return finish(nil)
	}
	k := c.kit
	sets := ev.readSets
	for o := 0; o < c.setsPerSG; {
		// The next window: up to a window of planned sets, read with the
		// lock dropped (the file header says why that is safe).
		n := min(len(sets), len(k.winPages))
		if n > 0 {
			for i, so := range sets[:n] {
				k.winAddrs[i] = c.dev.PageAddr(victim.zone, so)
			}
			c.mu.Unlock()
			_, err := c.dev.ReadPages(k.winAddrs[:n], k.winPages[:n])
			c.mu.Lock()
			if err != nil {
				// The failed window is not counted as read and none of its
				// sets is filtered; the flush fails, so the victim's
				// remaining objects all count as evictions.
				return finish(err)
			}
			c.stats.FlashReadOps += uint64(n)
			c.stats.FlashBytesRead += uint64(n * c.pageSize)
		}
		// Filter every set offset up to the window's last planned set (to
		// the SG's end after the last window).
		end := c.setsPerSG
		if n < len(sets) {
			end = sets[n-1] + 1
		}
		ri := 0
		for ; o < end; o++ {
			if victim.setCount(o) == 0 {
				continue
			}
			if ri >= n || sets[ri] != o {
				// Neither hotness signal could fire: no read-back happened.
				c.stats.Evictions += uint64(victim.setCount(o))
				resolved += victim.setCount(o)
				continue
			}
			page := k.winPages[ri]
			ri++
			wb, err := c.writebackSet(victim, o, page, dst)
			resolved += wb
			if err != nil {
				return finish(err)
			}
		}
		sets = sets[n:]
	}
	return finish(nil)
}

// writebackSet filters one read-back victim set page under the lock: hot,
// live, unshadowed entries that fit are written back into dst, the rest are
// counted as evictions. It returns how many of the set's objects it settled
// either way, which on error is fewer than all of them.
func (c *Cache) writebackSet(victim *flashSG, o int, page []byte, dst *memSG) (settled int, err error) {
	resident := c.pbfgResident(victim.group, o)
	blk := &c.kit.parseBlk
	if err := blk.DecodeFrom(page); err != nil {
		return 0, fmt.Errorf("core: parsing evicted set: %w", err)
	}
	blk.Range(func(slot int, e setblock.Entry) bool {
		// Tombstones (zero-length deletion markers) age out with
		// their SG; never write them back.
		hot := resident && victim.bit(o, slot) && len(e.Value) > 0
		if hot {
			shadowed, serr := c.shadowedByNewer(e.FP, o, victim.id, e.Key)
			if serr != nil {
				err = serr
				return false
			}
			if !shadowed && dst.canFit(o, len(e.Key), len(e.Value)) {
				dst.insert(o, e.FP, e.Key, e.Value, insWriteback)
				c.extra.WriteBackObjs++
				settled++
				return true
			}
		}
		c.stats.Evictions++
		settled++
		return true
	})
	return settled, err
}

// buildAndAppend is the unlocked build phase: erase the zones this flush's
// eviction freed, serialize the sealed SG's set blocks into its reserved
// data zone while building its per-set Bloom filters, and — when this SG
// completes its index group (idxZone ≥ 0) — assemble and append the group's
// PBFG pages to idxZone. The filters take the group's width; a group's first
// member sets that width here, from its own set counts after writeback
// (filterBits of its fullest set), and commit records it on the group.
func (c *Cache) buildAndAppend(ev *evictPlan, front *memSG, sg *flashSG, idxZone int) error {
	// The freed zones are erased first: the zone just reserved is usually
	// one of them, and the check below must see it empty.
	if ev != nil {
		if ev.retired != nil {
			if _, err := c.dev.ResetZone(ev.retired.zone); err != nil {
				return err
			}
		}
		if _, err := c.dev.ResetZone(ev.victim.zone); err != nil {
			return err
		}
	}
	// A cold format adopts a dirty device as-is (a refused warm-restart
	// snapshot is thrown away, nothing replays the old contents), so a zone
	// claimed from the free list can still hold a previous life's appends.
	// Rewind any non-empty reserved zone before the first append lands; on a
	// fresh or warm-restored device this never fires.
	for _, z := range [2]int{sg.zone, idxZone} {
		if z >= 0 && c.dev.ZoneWP(z) > 0 {
			if _, err := c.dev.ResetZone(z); err != nil {
				return err
			}
		}
	}
	sc := c.kit
	// The group's width, fixed under the lock by its first member's commit;
	// when this SG is that member, the width is its to set.
	sc.bfBits = sg.group.bfBits
	if sg.slot == 0 {
		fullest := 0
		for o := 0; o < c.setsPerSG; o++ {
			fullest = max(fullest, front.setCount(o))
		}
		sc.bfBits = c.filterBits(fullest)
	}
	sc.filter.Resize(sc.bfBits)
	nb := sc.bfBits / 8
	// The SG's filters are built in the owner's kit: readers test the group
	// buffer under the lock, so nothing is written there from here. Set
	// counts accumulate in the kit too — the SG's meta carve happens at
	// commit, when the final object count is known. Each window of set
	// pages is one Append.
	for o := 0; o < c.setsPerSG; {
		end := min(o+len(sc.winPages), c.setsPerSG)
		win := sc.window[:0]
		for ; o < end; o++ {
			win = front.appendSet(o, win)
			sc.counts[o] = uint32(front.setCount(o))
			sg.objCount += front.setCount(o)
			sc.filter.Reset()
			front.rangeSet(o, func(e setblock.Entry) bool {
				sc.filter.Add(e.FP)
				return true
			})
			sc.filter.AppendBytes(sc.bfs[:o*nb]) // in place: set o's slice of bfs
		}
		if _, _, err := c.appendRetry(sg.zone, win); err != nil {
			return fmt.Errorf("core: flushing SG: %w", err)
		}
	}
	if idxZone >= 0 {
		// One PBFG page per intra-SG offset (§4.3 "packed BF layout"): the
		// group buffer's page with this last member's column merged in, a
		// window of them per Append. A one-member group has no buffer.
		for o := 0; o < c.setsPerSG; {
			start, end := o, min(o+len(sc.winPages), c.setsPerSG)
			for ; o < end; o++ {
				page := sc.winPages[o-start]
				n := 0
				if sg.slot > 0 {
					n = copy(page, c.bufPage(sg.group, o))
				}
				clear(page[n:])
				bloom.MergeColumn(page, c.cfg.SGsPerIndexGroup, sg.slot, sc.bfs[o*nb:(o+1)*nb])
			}
			if _, _, err := c.appendRetry(idxZone, sc.window[:(end-start)*c.pageSize]); err != nil {
				return fmt.Errorf("core: sealing index group: %w", err)
			}
		}
	}
	return nil
}

// recoverFailedFlushLocked unwinds a flush that died mid-build so the
// cache stays consistent: every zone the flush touched is erased and
// returned to its free list, and the sealed SG is dropped — never
// published, so no reader holds it — and its objects count as evictions.
// Called and returns with c.mu held.
func (c *Cache) recoverFailedFlushLocked(ev *evictPlan, front *memSG, sg *flashSG, idxZone int, cause error) error {
	c.eraseLocked(ev, sg.zone, idxZone)
	c.freeDataZones = append(c.freeDataZones, sg.zone)
	if idxZone >= 0 {
		c.freeIndexZones = append(c.freeIndexZones, idxZone)
	}
	c.stats.Evictions += uint64(front.objCount())
	c.sealed = nil
	front.reset() // dropped, not flushed: nothing references its chunks
	c.kit.spare = front
	// Every path through here was killed by a device failure (a read-back,
	// parse, shadow-fetch, reset, or append error); seal-phase
	// zone-exhaustion errors — configuration conditions, not hardware —
	// return before recovery and are deliberately NOT counted here.
	c.stats.WriteErrors++
	c.breakerFlushFailedLocked(cause)
	return cause
}

// eraseLocked best-effort resets the zones an aborted flush may have left
// un-erased: an eviction's freed zones are erased only in the build phase,
// and the reserved zone and idxZone (-1 for none) may hold partial appends.
// Reset failures are structurally impossible for in-range zones and are
// ignored.
func (c *Cache) eraseLocked(ev *evictPlan, zone, idxZone int) {
	if ev != nil {
		if ev.retired != nil {
			c.dev.ResetZone(ev.retired.zone)
		}
		c.dev.ResetZone(ev.victim.zone)
	}
	for _, z := range [2]int{zone, idxZone} {
		if z >= 0 {
			c.dev.ResetZone(z)
		}
	}
}

// runDeferredFlush executes one deferred flush job on a flusher-pool
// goroutine. The trigger is re-checked — after waiting out any flush
// already in flight — because an intervening flush may have rotated the
// queue, and flushing a fresh front would only hurt the fill rate.
func (c *Cache) runDeferredFlush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushPending = false
	c.waitFlushIdleLocked()
	if !c.asyncFlushDueLocked() {
		return nil
	}
	return c.flushFrontLocked()
}
