package core

// The concurrent read path: flash I/O happens outside the shard mutex.
//
// There is one lookup routine, getBatch; Get is its n = 1 case and GetMany
// its general one. A lookup runs in three phases:
//
//   - plan (locked): fingerprint → set offset, probe the in-memory SGs, and
//     — when the lookup must go to flash — identify the candidates in place:
//     every PBFG page that is in memory (an unsealed group's buffer, or a
//     page in the index cache) is tested right here with the key's probe
//     set, all of its group's members at once (bloom.GroupMask), and only
//     the positives are queued, newest first, each with its candidate page
//     address precomputed. A sealed group whose PBFG
//     page is missing from the index cache queues the fetch and its members
//     untested. The SG epoch (pool head ID + flush sequence) is recorded. The
//     unlocked phase is handed no reference into the recycling index-cache
//     arena or the group buffers: no filter byte leaves the lock.
//   - I/O (unlocked): fetch the missing PBFG pages into buffers the attempt
//     owns and Bloom-test the members queued behind them, read the candidate
//     set pages (pooled per-goroutine buffers via sync.Pool — never the
//     mutex-guarded scratch the old path used), and scan them for the key.
//   - commit (locked): re-validate the epoch. If no SG was flushed or
//     evicted since the plan, the pages read were the immutable pages the
//     snapshot named, so the order-insensitive read-side effects apply:
//     Hits/FlashReadOps/FlashBytesRead/ReadErrors counters, markHot bits,
//     deduplicated icache publication of the fetched PBFG pages, the
//     latency histogram.
//
// Conflict policy — the only one: when the epoch moved, the aborted reads
// are accounted (they happened), the pages they fetched are dropped
// unpublished, and every unresolved key is redone — planned, read and
// committed — under the lock already held. The redo therefore holds the shard
// lock across device reads; that is the pre-concurrent fully-locked
// behavior, it cannot conflict again, so a lookup always returns after at
// most two passes, and it is rare: a counters-only census of the four
// BENCHMARK.json workloads saw it on at most 33 of 2.7 M flash-going lookups
// (lib_direct) and 13 of 1.1 M batch passes (write_churn).
//
// Epoch rule: the snapshot is valid iff the pool head SG ID and the flush
// sequence number (nextSGID) are unchanged. Every eviction pops the pool
// head (IDs are dense and increasing, so the head ID moves), and every
// flush increments nextSGID before any zone is rewritten, so an unchanged
// epoch proves no zone named by the snapshot was reset or rewritten while
// it was being read.
//
// Determinism: driven serially (every replay harness drives one shard from
// one goroutine), the three-phase path performs the same device reads in the
// same order with the same statistics on every run. Fetched PBFG pages are
// published to the index cache only in the commit phase: publishing
// mid-lookup would let, at index-cache capacity, a fetch for a newer group
// evict a page the same lookup still needs for an older group and force a
// duplicate fetch. Under truly concurrent GETs racing
// writers, hit/miss results stay exact (the epoch retry) but the
// index-cache lookup/miss counters and FlashReadOps may inflate: a
// conflicted attempt's reads are real and are counted, and two racing
// GETs may both fetch the same PBFG page before either publishes it (the
// commit-phase put deduplicates the cache itself, not the counters).

import (
	"time"

	"nemo/internal/bloom"
	"nemo/internal/hashing"
	"nemo/internal/setblock"
)

// probeEnt is one candidate SG queued by the plan phase, in newest-first
// candidate order: either a member whose in-memory filter already tested
// positive (pend < 0), or a member of a group whose PBFG page is a pending
// fetch, tested by the I/O phase once the page is in. The sg pointer is
// carried for the commit phase only (markHot, under the lock after epoch
// validation); the unlocked phase works from the precomputed address.
type probeEnt struct {
	sg   *flashSG
	addr int   // flash address of the candidate set page, fixed at plan time
	pend int32 // index into the pend list; -1 = tested positive at plan time
	slot int32 // filter slot within the pending group's page
}

// pendFetch is one PBFG page the plan phase found missing from the index
// cache. The I/O phase fetches it into a pooled page buffer owned by the
// attempt; the commit phase publishes it to the index cache, whose put
// copies the bytes into the cache's page arena, so the buffer recycles into
// the scratch pool immediately after.
type pendFetch struct {
	g     *idxGroup
	set   int
	addr  int
	page  []byte
	done  time.Duration
	err   error
	owner int32 // batch: index of the key whose I/O pass fetches the page
}

// getScratch is the per-goroutine reusable state of one lookup (one Get or
// one GetMany batch).
// Instances live in the cache's sync.Pool: a borrowing goroutine owns the
// scratch exclusively until it returns it, so the steady-state hot path
// allocates nothing beyond the returned value copy. The candidate read
// buffers (bufs) are plain pooled pages — the device copies into them
// synchronously and never retains them (the device contract's buffer-ownership
// rule), and they are recycled across Gets. PBFG pages headed for the
// index cache draw from their own free list (freePages): the index cache
// copies on put, so the fetch buffer comes straight back.
type getScratch struct {
	probes    *bloom.ProbeSet // of the key being planned (or, in getIO, read)
	ents      []probeEnt
	pends     []pendFetch
	cands     []*flashSG
	addrs     []int
	bufs      [][]byte
	freePages [][]byte

	// Per-key state, parallel to the keys handed to getBatch, which leaves
	// every key's outcome here (see outcome).
	atts    []getAttempt
	results []getIOResult

	// one is Get's key slot: a one-key batch without a slice literal that
	// would escape to the heap.
	one [1][]byte
}

// borrowScratch takes a scratch from the cache's pool.
func (c *Cache) borrowScratch() *getScratch {
	return c.getPool.Get().(*getScratch)
}

// returnScratch gives sc back to the pool without retaining key or value
// bytes in it.
func (c *Cache) returnScratch(sc *getScratch) {
	for j := range sc.atts {
		sc.atts[j].val = nil
		sc.results[j].val = nil
	}
	sc.atts, sc.results = sc.atts[:0], sc.results[:0]
	sc.one[0] = nil
	c.getPool.Put(sc)
}

// outcome reports key j's result after getBatch: a fresh copy of the value
// and true on a hit, nil and false otherwise.
func (sc *getScratch) outcome(j int) ([]byte, bool) {
	if att := &sc.atts[j]; att.resolved {
		return att.val, att.hit
	}
	return sc.results[j].val, sc.results[j].outcome == ioHit
}

// getAttempt carries one key's plan-phase snapshot through the I/O and
// commit phases.
type getAttempt struct {
	fp    uint64
	o     int
	start time.Duration

	// Epoch snapshot (valid only when !resolved).
	headID uint64
	nextSG uint64

	// ents[entLo:entHi] are this attempt's candidates (the keys of a batch
	// slice one shared arena); pendBacked is set when any of them still
	// awaits its Bloom test behind a pending fetch.
	entLo, entHi int32
	pendBacked   bool

	// Early outcome: the lookup resolved entirely under the plan lock
	// (in-memory hit, tombstone, or empty pool).
	resolved bool
	val      []byte
	hit      bool
}

// I/O-phase outcomes.
const (
	ioMiss = iota // clean miss (no candidates, or all candidates false positives)
	ioHit
	ioTomb // tombstone found on flash: deletion shadows older copies
	ioErr  // device read error: degrade to a miss, counted in ReadErrors
)

// getIOResult is everything the unlocked phase produced, applied (or
// discarded) by the commit phase.
type getIOResult struct {
	outcome   int
	val       []byte
	hotSG     *flashSG
	hotSlot   int
	readOps   uint64
	readBytes uint64
	fpReads   uint64
	readErrs  uint64
	maxDone   time.Duration
}

// epochLocked snapshots the SG epoch into att. Caller holds c.mu and has
// checked the pool is non-empty.
func (c *Cache) epochLocked(att *getAttempt) {
	att.headID = c.pool[0].id
	att.nextSG = c.nextSGID
}

// epochValidLocked reports whether the flash layout named by att's snapshot
// is untouched: no SG evicted (head ID) and none flushed (flush sequence).
func (c *Cache) epochValidLocked(att *getAttempt) bool {
	return len(c.pool) > 0 && c.pool[0].id == att.headID && c.nextSGID == att.nextSG
}

// planGetLocked is the locked plan phase for one key: in-memory probe, and
// on a flash lookup the candidate/pend snapshot appended to sc.ents/sc.pends
// (att.entLo/entHi record this key's segment). sc.probes must hold the
// probe set of att.fp: the caller computes it before planning (outside the
// lock where it can). owner stamps any new pend with the planning key's
// batch index so the I/O phase fetches each shared page exactly once, at the
// position a serial execution would have fetched it. Index-cache lookup/miss
// counters are charged here. The caller holds c.mu and has already counted
// the Get.
func (c *Cache) planGetLocked(sc *getScratch, att *getAttempt, key []byte, owner int32) {
	att.resolved = false
	fp, o := att.fp, att.o

	// 1. In-memory SGs, front to rear, then the sealed-but-uncommitted SG
	// of an in-flight flush (writepath.go): its objects are not yet
	// discoverable on flash, and any memq copy of the same key was inserted
	// after the seal and is therefore newer, so the sealed SG probes last.
	// Driven serially the sealed slot is always empty.
	for i := 0; i <= len(c.memq); i++ {
		var sg *memSG
		if i < len(c.memq) {
			sg = c.memq[i]
		} else if c.sealed != nil {
			sg = c.sealed
		} else {
			break
		}
		if v, ok := sg.lookup(o, fp, key); ok {
			if len(v) == 0 {
				// Tombstone: the key was deleted; the marker shadows any
				// older flash copy, so stop here.
				c.hist.Record(time.Microsecond)
				att.resolved, att.val, att.hit = true, nil, false
				return
			}
			c.stats.Hits++
			c.hist.Record(time.Microsecond)
			att.resolved, att.val, att.hit = true, append([]byte(nil), v...), true
			return
		}
	}
	if len(c.pool) == 0 {
		c.hist.Record(time.Microsecond)
		att.resolved, att.val, att.hit = true, nil, false
		return
	}
	c.epochLocked(att)

	// 2. Identify the candidates: newest group first, newest member first,
	// so the I/O phase scans shadowing copies in the same order the locked
	// path searched them. Filters are tested where they lie — arena slots and
	// unsealed group buffers may be recycled or dropped the moment the lock
	// is released, so nothing of them is kept. The walk tests only live
	// members: an in-flight flush keeps its filters in its flush kit until
	// its commit merges them into the group buffer under this lock.
	att.entLo = int32(len(sc.ents))
	att.pendBacked = false
	pend := int32(-1)
	// This fetch only consults the index cache and never fails, so neither
	// can the walk.
	_ = c.walkCandidates(o, sc.probes, 0, func(g *idxGroup, o int) ([]byte, error) {
		c.icache.lookups++
		page, ok := c.icache.get(g, o)
		if !ok {
			if pend = sc.findPend(g, o); pend < 0 {
				c.icache.misses++
				pend = int32(len(sc.pends))
				sc.pends = append(sc.pends, pendFetch{
					g:     g,
					set:   o,
					addr:  c.dev.PageAddr(g.zone, o),
					owner: owner,
				})
			}
			att.pendBacked = true
		}
		return page, nil
	}, func(m *flashSG, tested bool) bool {
		e := probeEnt{sg: m, addr: c.dev.PageAddr(m.zone, o), pend: -1, slot: int32(m.slot)}
		if !tested {
			e.pend = pend
		}
		sc.ents = append(sc.ents, e)
		return true
	})
	att.entHi = int32(len(sc.ents))
}

// findPend reports an already-planned fetch of g's page for set o (batch
// deduplication: a page missed by an earlier key of the same batch will be
// in cache by the time a serial execution reached this key, so the later key
// charges a lookup but no miss and shares the fetched page).
func (sc *getScratch) findPend(g *idxGroup, o int) int32 {
	for i := range sc.pends {
		if p := &sc.pends[i]; p.g == g && p.set == o {
			return int32(i)
		}
	}
	return -1
}

// fetchPend performs one pending PBFG fetch if it has not run yet,
// accounting the read in r. The page buffer comes from the scratch's free
// list (the index cache copies on put, so publication returns it), making
// the steady-state PBFG miss allocation-free like every other GET outcome.
func (c *Cache) fetchPend(sc *getScratch, p *pendFetch, r *getIOResult) {
	if p.page != nil || p.err != nil {
		return
	}
	var page []byte
	if n := len(sc.freePages); n > 0 {
		page = sc.freePages[n-1]
		sc.freePages = sc.freePages[:n-1]
	} else {
		page = make([]byte, c.pageSize)
	}
	d, err := c.dev.ReadPage(p.addr, page)
	if err != nil {
		sc.freePages = append(sc.freePages, page)
		p.err = err
		return
	}
	p.page, p.done = page, d
	r.readOps++
	r.readBytes += uint64(c.pageSize)
}

// getIO is the unlocked phase for one key: fetch this attempt's pending
// PBFG pages, Bloom-test the members queued behind them, read and scan the
// candidate set pages. my selects which pends this attempt owns (the keys of
// a batch share the pend list); pends fetched by earlier keys contribute no
// latency here, mirroring the index-cache hit a serial execution would see.
// The outcome lands in r, which the caller has zeroed: the key's slot of
// sc.results, filled in place rather than copied out.
func (c *Cache) getIO(sc *getScratch, att *getAttempt, key []byte, my int32, r *getIOResult) {
	for i := range sc.pends {
		p := &sc.pends[i]
		if p.owner != my {
			continue
		}
		c.fetchPend(sc, p, r)
		if p.err != nil {
			// Abort at the first failed index read, like the locked path:
			// without the filters the candidate set is unknowable.
			r.readErrs++
			r.outcome = ioErr
			return
		}
		if p.done > r.maxDone {
			r.maxDone = p.done
		}
	}
	if att.pendBacked {
		// A batch plans every key before any I/O, so the scratch's probe set
		// is the last planned key's by now.
		sc.probes.Reuse(att.fp)
	}
	cands := sc.cands[:0]
	addrs := sc.addrs[:0]
	tested, mask := int32(-1), uint64(0) // the pend whose group mask is in hand
	for _, e := range sc.ents[att.entLo:att.entHi] {
		if e.pend >= 0 {
			p := &sc.pends[e.pend]
			if p.page == nil {
				// The owning key aborted before fetching this page (or the
				// fetch itself failed): complete it on behalf of this key.
				c.fetchPend(sc, p, r)
				if p.err == nil && p.done > r.maxDone {
					r.maxDone = p.done
				}
			}
			if p.err != nil {
				r.readErrs++
				r.outcome = ioErr
				return
			}
			if e.pend != tested {
				tested, mask = e.pend, bloom.GroupMask(p.page[:c.pageBytes(p.g)], c.cfg.SGsPerIndexGroup, p.g.bfBits, sc.probes, ^uint64(0))
			}
			if mask>>uint(e.slot)&1 == 0 {
				continue
			}
		}
		cands = append(cands, e.sg)
		addrs = append(addrs, e.addr)
	}
	sc.cands, sc.addrs = cands, addrs
	if len(cands) == 0 {
		r.outcome = ioMiss
		return
	}

	// The candidate reads are one ReadPages call with one run per candidate
	// SG. filedev copies each run out of its image mapping with no system
	// call; only a Direct image still makes one pread per run, one after
	// another, where the paper reads them concurrently (ROADMAP direction 8).
	// Read amplification counts each page.
	for len(sc.bufs) < len(cands) {
		sc.bufs = append(sc.bufs, make([]byte, c.pageSize))
	}
	pages := sc.bufs[:len(cands)]
	done, err := c.dev.ReadPages(addrs, pages)
	if err != nil {
		r.readErrs++
		r.outcome = ioErr
		return
	}
	if done > r.maxDone {
		r.maxDone = done
	}
	r.readOps += uint64(len(cands))
	r.readBytes += uint64(len(cands) * c.pageSize)
	for i, m := range cands {
		v, slot, ok := setblock.Scan(pages[i], att.fp, key)
		if !ok {
			r.fpReads++
			continue
		}
		if len(v) == 0 {
			// Tombstone on flash: candidates are scanned newest-first, so
			// the deletion shadows every older copy.
			r.outcome = ioTomb
			return
		}
		r.outcome = ioHit
		r.val = append([]byte(nil), v...)
		r.hotSG, r.hotSlot = m, slot
		return
	}
	r.outcome = ioMiss
	return
}

// commitGetLocked applies one attempt's validated read-side effects under
// c.mu: counters and hotness bits update, and the latency sample records.
// The caller has published the pend list (publishPendsLocked).
func (c *Cache) commitGetLocked(att *getAttempt, r *getIOResult) {
	c.stats.FlashReadOps += r.readOps
	c.stats.FlashBytesRead += r.readBytes
	c.stats.ReadErrors += r.readErrs
	c.extra.FalsePositiveReads += r.fpReads
	switch r.outcome {
	case ioHit:
		c.stats.Hits++
		c.markHot(r.hotSG, att.o, r.hotSlot)
		c.hist.Record(r.maxDone - att.start + time.Microsecond)
	case ioMiss, ioTomb:
		c.hist.Record(r.maxDone - att.start + time.Microsecond)
	case ioErr:
		c.hist.Record(time.Microsecond)
	}
}

// publishPendsLocked copies every fetched PBFG page into the index cache in
// plan order, so the FIFO queue matches a serial execution's put order (put
// copies into the arena, deduplicating against racing publishers), and
// recycles the fetch buffers into the scratch's free list.
func (c *Cache) publishPendsLocked(sc *getScratch) {
	for i := range sc.pends {
		if p := &sc.pends[i]; p.page != nil {
			c.icache.put(c.groups, p.g, p.set, p.page)
			sc.freePages = append(sc.freePages, p.page)
			p.page = nil
		}
	}
}

// abortGetsLocked discards a conflicted pass: the device reads of its
// unresolved attempts happened and are accounted, but nothing read is
// trusted — fetched PBFG pages are dropped instead of published (a
// reset-and-rewritten index zone could have yielded stale or foreign filter
// bytes).
func (c *Cache) abortGetsLocked(sc *getScratch) {
	for j := range sc.atts {
		if sc.atts[j].resolved {
			continue
		}
		r := &sc.results[j]
		c.stats.FlashReadOps += r.readOps
		c.stats.FlashBytesRead += r.readBytes
		c.stats.ReadErrors += r.readErrs
	}
	for i := range sc.pends {
		if p := &sc.pends[i]; p.page != nil {
			sc.freePages = append(sc.freePages, p.page)
			p.page = nil
		}
	}
}

// resetPlan clears the planning state between passes.
func (sc *getScratch) resetPlan() {
	sc.ents = sc.ents[:0]
	sc.pends = sc.pends[:0]
}

// getBatch is the three-phase lookup behind Get (n = 1) and GetMany: keys
// are fingerprinted, and the first key's probe set computed, before the lock
// is taken; all keys plan under one lock acquisition, every key's flash I/O
// runs unlocked back to back (so one shard's batch overlaps its reads on
// the device's channels exactly as the serial op sequence would have
// scheduled them), and all read-side effects commit under a second, single
// lock acquisition. A PBFG page missed by several keys of the batch is
// fetched once, by the first key that planned it — mirroring the serial
// execution, where the first key's fetch populates the index cache for the
// rest — and later keys charge an index-cache lookup but no miss.
//
// sc is the caller's borrowed scratch; key j's result is sc.outcome(j) until
// the scratch is returned. On an epoch conflict (a racing writer flushed or
// evicted mid-lookup) the policy of the file header applies: abort, then
// redo the unresolved keys one by one under the held lock, each publishing
// its fetches before the next plans, exactly like serial Gets.
//
// Accounting contract (TestGetManySharedFetchFailureContract): the
// fetch-sharing premise assumes the first key's fetch succeeds. If a shared
// fetch fails, serial execution would have had every subsequent key retry
// the fetch (another lookup, miss, and device attempt each); the batch
// instead reuses the sticky error: the k sharers all miss and ReadErrors
// rises by k, but the index cache is charged k lookups and one miss and the
// page is attempted once — under device faults icache.misses undercounts
// relative to serial by k-1. Nothing is cached from the failure, so the next
// lookup fetches the page again. Fault-free batches match serial exactly.
func (c *Cache) getBatch(sc *getScratch, keys [][]byte) {
	if len(keys) == 0 {
		return
	}
	sc.resetPlan()
	atts, results := sc.atts[:0], sc.results[:0]
	for _, key := range keys {
		fp := hashing.Fingerprint(key)
		atts = append(atts, getAttempt{fp: fp, o: c.setOf(fp)})
		results = append(results, getIOResult{})
	}
	sc.atts, sc.results = atts, results
	sc.probes.Reuse(atts[0].fp)

	// Phase 1: plan every key under one lock acquisition.
	c.mu.Lock()
	start := c.dev.Clock().Now()
	for j := range atts {
		atts[j].start = start
		c.stats.Gets++
		if j > 0 {
			sc.probes.Reuse(atts[j].fp)
		}
		c.planGetLocked(sc, &atts[j], keys[j], int32(j))
	}
	c.mu.Unlock()

	// Phase 2: unlocked I/O, key by key in batch order.
	flash := -1 // first key that went to flash; all share one epoch
	for j := range atts {
		if !atts[j].resolved {
			if flash < 0 {
				flash = j
			}
			c.getIO(sc, &atts[j], keys[j], int32(j), &results[j])
		}
	}
	if flash < 0 {
		return
	}

	// Phase 3: validate once and commit everything under one lock.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochValidLocked(&atts[flash]) {
		c.publishPendsLocked(sc)
		for j := flash; j < len(atts); j++ {
			if !atts[j].resolved {
				c.commitGetLocked(&atts[j], &results[j])
			}
		}
		return
	}
	c.abortGetsLocked(sc)
	for j := flash; j < len(atts); j++ {
		if atts[j].resolved {
			continue
		}
		sc.resetPlan()
		sc.probes.Reuse(atts[j].fp)
		c.planGetLocked(sc, &atts[j], keys[j], int32(j))
		if atts[j].resolved {
			continue
		}
		results[j] = getIOResult{}
		c.getIO(sc, &atts[j], keys[j], int32(j), &results[j])
		c.publishPendsLocked(sc)
		c.commitGetLocked(&atts[j], &results[j])
	}
}
