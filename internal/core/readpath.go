package core

// The concurrent read path: flash I/O happens outside the shard mutex.
//
// A Get runs in three phases:
//
//   - plan (locked): fingerprint → set offset, probe the in-memory SGs, and
//     — when the lookup must go to flash — identify the candidates in place:
//     every member filter that is in memory (an unsealed group's buffer, or
//     a PBFG page in the index cache) is Bloom-tested right here with the
//     key's probe set, and only the positives are queued, newest first, each
//     with its candidate page address precomputed. A sealed group whose PBFG
//     page is missing from the index cache queues the fetch and its members
//     untested. The SG epoch (pool head ID + flush sequence) is recorded. The
//     unlocked phase is handed no reference into the recycling
//     index-cache/SG arenas or the group buffers: no filter byte leaves the
//     lock.
//   - I/O (unlocked): fetch the missing PBFG pages into buffers the attempt
//     owns and Bloom-test the members queued behind them, read the candidate
//     set pages (pooled per-goroutine buffers via sync.Pool — never the
//     mutex-guarded scratch the old path used), and scan them for the key.
//   - commit (locked): re-validate the epoch. If no SG was flushed or
//     evicted since the plan, the pages read were the immutable pages the
//     snapshot named, so the order-insensitive read-side effects apply:
//     Hits/FlashReadOps/FlashBytesRead/ReadErrors counters, markHot bits,
//     deduplicated icache publication of the fetched PBFG pages, the
//     latency histogram. On conflict the attempt is discarded (device reads
//     are still accounted — they happened) and the Get replans; after
//     maxGetOptimistic conflicts it falls back to running the I/O phase
//     under the lock, which is exactly the pre-concurrent behavior and
//     guarantees progress.
//
// Epoch rule: the snapshot is valid iff the pool head SG ID and the flush
// sequence number (nextSGID) are unchanged. Every eviction pops the pool
// head (IDs are dense and increasing, so the head ID moves), and every
// flush increments nextSGID before any zone is rewritten, so an unchanged
// epoch proves no zone named by the snapshot was reset or rewritten while
// it was being read.
//
// Determinism: driven serially (every replay harness drives one shard from
// one goroutine), the three-phase path performs the identical device reads,
// in the identical order, with identical statistics to the historical
// fully-locked path, with one deliberate exception: the old path published
// each fetched PBFG page mid-lookup, so at index-cache capacity a fetch
// for a newer group could evict a page the same lookup needed for an older
// group, forcing a duplicate fetch. Deferring publication to the commit
// phase removes those duplicate fetches — read traffic under capacity
// pressure can only go down, and hit/miss results, write-side counters,
// and determinism are untouched. Under truly concurrent GETs racing
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

// maxGetOptimistic bounds how many epoch conflicts a Get tolerates before
// falling back to fully-locked I/O (guaranteed progress under write storms).
const maxGetOptimistic = 3

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
	key   pbfgKey
	addr  int
	page  []byte
	done  time.Duration
	err   error
	owner int32 // batch: index of the key whose I/O pass fetches the page
}

// getScratch is the per-goroutine reusable state of one Get (or one batch).
// Instances live in the cache's sync.Pool: a borrowing goroutine owns the
// scratch exclusively until it returns it, so the steady-state hot path
// allocates nothing beyond the returned value copy. The candidate read
// buffers (bufs) are plain pooled pages — the device copies into them
// synchronously and never retains them (the flashsim ReadPages ownership
// contract), and they are recycled across Gets. PBFG pages headed for the
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

	// Batch-mode per-key state (see getBatch).
	atts    []getAttempt
	results []getIOResult
}

// borrowScratch takes a scratch from the cache's pool.
func (c *Cache) borrowScratch() *getScratch {
	return c.getPool.Get().(*getScratch)
}

func (c *Cache) returnScratch(sc *getScratch) {
	c.getPool.Put(sc)
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

	// ents[entLo:entHi] are this attempt's candidates (batch mode slices one
	// shared arena; single-key mode uses the whole slice); pendBacked is set
	// when any of them still awaits its Bloom test behind a pending fetch.
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
// batch index (0 for single-key lookups) so the I/O phase fetches each
// shared page exactly once, at the position a serial execution would have
// fetched it. Index-cache lookup/miss counters are charged here, mirroring
// the historical locked path. The caller holds c.mu and has already counted
// the Get.
func (c *Cache) planGetLocked(sc *getScratch, att *getAttempt, key []byte, owner int32) {
	att.resolved = false
	fp, o := att.fp, att.o

	// 1. In-memory SGs, front to rear, then the sealed-but-uncommitted SG
	// of an in-flight flush (writepath.go): its objects are not yet
	// discoverable on flash, and any memq copy of the same key was inserted
	// after the seal and is therefore newer, so the sealed SG probes last.
	// Driven serially the sealed slot is always empty and this is exactly
	// the historical memq probe.
	for i := 0; i <= len(c.memq); i++ {
		var sg *memSG
		if i < len(c.memq) {
			sg = c.memq[i]
		} else if c.sealed != nil {
			sg = c.sealed.mem
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
	// is released, so nothing of them is kept — and only members already
	// published in g.members are tested: an in-flight flush writes its own
	// slot's carve of the group buffer unlocked, disjoint from every byte
	// read here.
	att.entLo = int32(len(sc.ents))
	att.pendBacked = false
	for gi := len(c.groups) - 1; gi >= 0; gi-- {
		g := c.groups[gi]
		if g.liveCount == 0 {
			continue
		}
		var page []byte
		pend := int32(-1)
		if g.sealed {
			k := pbfgKey{group: g.id, set: o}
			c.icache.lookups++
			if p, ok := c.icache.get(k); ok {
				page = p
			} else {
				pend = sc.findPend(k)
				if pend < 0 {
					c.icache.misses++
					pend = int32(len(sc.pends))
					sc.pends = append(sc.pends, pendFetch{
						key:   k,
						addr:  c.pageAddrIn(g.zones, o),
						owner: owner,
					})
				}
				att.pendBacked = true
			}
		}
		for s := len(g.members) - 1; s >= 0; s-- {
			m := g.members[s]
			if m.dead || m.setCount(o) == 0 {
				continue
			}
			if pend < 0 && !c.testMember(g, page, s, o, sc.probes) {
				continue
			}
			// The page address is fixed here because m.zones aliases the
			// recycling SG arena.
			sc.ents = append(sc.ents, probeEnt{sg: m, addr: c.pageAddrIn(m.zones, o), pend: pend, slot: int32(s)})
		}
	}
	att.entHi = int32(len(sc.ents))
}

// findPend reports an already-planned fetch for k (batch deduplication: a
// page missed by an earlier key of the same batch will be in cache by the
// time a serial execution reached this key, so the later key charges a
// lookup but no miss and shares the fetched page). Single-key plans always
// start with an empty pend list, where this trivially returns -1.
func (sc *getScratch) findPend(k pbfgKey) int32 {
	for i := range sc.pends {
		if sc.pends[i].key == k {
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
// candidate set pages. my selects which pends this attempt owns (batch mode
// shares the pend list across keys); pends fetched by earlier keys contribute
// no latency here, mirroring the index-cache hit a serial execution would see.
func (c *Cache) getIO(sc *getScratch, att *getAttempt, key []byte, my int32) (r getIOResult) {
	for i := range sc.pends {
		p := &sc.pends[i]
		if p.owner != my {
			continue
		}
		c.fetchPend(sc, p, &r)
		if p.err != nil {
			// Abort at the first failed index read, like the locked path:
			// without the filters the candidate set is unknowable.
			r.readErrs++
			r.outcome = ioErr
			return r
		}
		if p.done > r.maxDone {
			r.maxDone = p.done
		}
	}
	if att.pendBacked {
		// A batch plans every key before any I/O, so the scratch's probe set
		// is the last planned key's by now.
		sc.probes.Reuse(att.fp, c.bfBits)
	}
	cands := sc.cands[:0]
	addrs := sc.addrs[:0]
	for _, e := range sc.ents[att.entLo:att.entHi] {
		if e.pend >= 0 {
			p := &sc.pends[e.pend]
			if p.page == nil {
				// The owning key aborted before fetching this page (or the
				// fetch itself failed): complete it on behalf of this key.
				c.fetchPend(sc, p, &r)
				if p.err == nil && p.done > r.maxDone {
					r.maxDone = p.done
				}
			}
			if p.err != nil {
				r.readErrs++
				r.outcome = ioErr
				return r
			}
			if !bloom.TestRaw(p.page[int(e.slot)*c.bfBytes:int(e.slot+1)*c.bfBytes], sc.probes) {
				continue
			}
		}
		cands = append(cands, e.sg)
		addrs = append(addrs, e.addr)
	}
	sc.cands, sc.addrs = cands, addrs
	if len(cands) == 0 {
		r.outcome = ioMiss
		return r
	}

	// Parallel candidate reads (the paper reads all candidate sets at the
	// hashed offset concurrently; read amplification counts each page).
	for len(sc.bufs) < len(cands) {
		sc.bufs = append(sc.bufs, make([]byte, c.pageSize))
	}
	pages := sc.bufs[:len(cands)]
	done, err := c.dev.ReadPages(addrs, pages)
	if err != nil {
		r.readErrs++
		r.outcome = ioErr
		return r
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
			return r
		}
		r.outcome = ioHit
		r.val = append([]byte(nil), v...)
		r.hotSG, r.hotSlot = m, slot
		return r
	}
	r.outcome = ioMiss
	return r
}

// commitGetLocked applies one attempt's validated read-side effects under
// c.mu: fetched PBFG pages publish to the index cache (in plan order, so
// the FIFO queue matches the locked path's put order), counters and hotness
// bits update, and the latency sample records. publishPends is false for
// batch commits, which publish the shared pend list once for all keys.
func (c *Cache) commitGetLocked(sc *getScratch, att *getAttempt, r *getIOResult, publishPends bool) {
	if publishPends {
		c.publishPendsLocked(sc)
	}
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

// publishPendsLocked copies every fetched PBFG page into the index cache
// (put copies into the arena, deduplicating against racing publishers) and
// recycles the fetch buffers into the scratch's free list.
func (c *Cache) publishPendsLocked(sc *getScratch) {
	for i := range sc.pends {
		if p := &sc.pends[i]; p.page != nil {
			c.icache.put(p.key, p.page)
			sc.freePages = append(sc.freePages, p.page)
			p.page = nil
		}
	}
}

// abortGetLocked discards a conflicted attempt: the device reads happened
// and are accounted, but nothing read is trusted — fetched PBFG pages are
// dropped instead of published (a reset-and-rewritten index zone could have
// yielded stale or foreign filter bytes).
func (c *Cache) abortGetLocked(sc *getScratch, r *getIOResult) {
	c.stats.FlashReadOps += r.readOps
	c.stats.FlashBytesRead += r.readBytes
	c.stats.ReadErrors += r.readErrs
	for i := range sc.pends {
		if p := &sc.pends[i]; p.page != nil {
			sc.freePages = append(sc.freePages, p.page)
		}
		sc.pends[i].page = nil
		sc.pends[i].err = nil
	}
}

// resetPlan clears the single-key planning state between attempts.
func (sc *getScratch) resetPlan() {
	sc.ents = sc.ents[:0]
	sc.pends = sc.pends[:0]
}

// get is the single-key lookup path behind Get; the key is already
// fingerprinted.
func (c *Cache) get(fp uint64, key []byte) ([]byte, bool) {
	sc := c.borrowScratch()
	defer c.returnScratch(sc)
	att := getAttempt{fp: fp, o: c.setOf(fp)}
	sc.probes.Reuse(fp, c.bfBits)
	c.mu.Lock()
	c.stats.Gets++
	att.start = c.dev.Clock().Now()
	for attempt := 0; ; attempt++ {
		sc.resetPlan()
		c.planGetLocked(sc, &att, key, allPends)
		if att.resolved {
			c.mu.Unlock()
			return att.val, att.hit
		}
		if attempt >= maxGetOptimistic {
			// Pessimistic fallback: run the I/O under the lock. This is
			// exactly the historical fully-locked behavior, so it needs no
			// validation and always completes.
			r := c.getIO(sc, &att, key, allPends)
			c.commitGetLocked(sc, &att, &r, true)
			c.mu.Unlock()
			return r.val, r.outcome == ioHit
		}
		c.mu.Unlock()
		r := c.getIO(sc, &att, key, allPends)
		c.mu.Lock()
		if c.epochValidLocked(&att) {
			c.commitGetLocked(sc, &att, &r, true)
			c.mu.Unlock()
			return r.val, r.outcome == ioHit
		}
		// Conflict: a flush or eviction moved the flash layout mid-read.
		// Discard and replan under the lock we already hold.
		c.abortGetLocked(sc, &r)
	}
}

// allPends is the single-key owner index: a lone attempt owns every pend it
// planned.
const allPends = 0

// getBatch is the batched three-phase lookup behind GetMany and the sharded
// fan-out: all keys plan under one lock acquisition, every key's flash I/O
// runs unlocked back to back (so one shard's batch overlaps its reads on
// the device's channels exactly as the serial op sequence would have
// scheduled them), and all read-side effects commit under a second, single
// lock acquisition. A PBFG page missed by several keys of the batch is
// fetched once, by the first key that planned it — mirroring the serial
// execution, where the first key's fetch populates the index cache for the
// rest — and later keys charge an index-cache lookup but no miss.
//
// fps may be nil, in which case keys are fingerprinted here (one hash
// pass). emit is called once per key, in order, after all locks are
// released. On an epoch conflict (a racing writer flushed or evicted
// mid-batch) the unresolved keys are redone pessimistically — planned,
// read, and committed under one held lock — which is exact and cannot
// conflict again.
//
// Accounting caveat: the fetch-sharing premise assumes the first key's
// fetch succeeds. If a shared fetch fails, serial execution would have
// had every subsequent key retry the fetch (another lookup, miss, and
// device attempt each); the batch instead reuses the sticky error, so
// under device faults icache.misses undercounts relative to serial by
// the number of sharers. Fault-free batches match serial exactly.
func (c *Cache) getBatch(fps []uint64, keys [][]byte, emit func(j int, val []byte, hit bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := c.borrowScratch()
	defer c.returnScratch(sc)
	sc.resetPlan()
	atts := sc.atts[:0]
	results := sc.results[:0]

	// Phase 1: plan every key under one lock acquisition.
	c.mu.Lock()
	start := c.dev.Clock().Now()
	for j := 0; j < n; j++ {
		fp := uint64(0)
		if fps != nil {
			fp = fps[j]
		} else {
			fp = hashing.Fingerprint(keys[j])
		}
		atts = append(atts, getAttempt{fp: fp, o: c.setOf(fp), start: start})
		c.stats.Gets++
		sc.probes.Reuse(fp, c.bfBits)
		c.planGetLocked(sc, &atts[j], keys[j], int32(j))
	}
	c.mu.Unlock()

	// Phase 2: unlocked I/O, key by key in batch order.
	for j := range atts {
		if atts[j].resolved {
			results = append(results, getIOResult{})
			continue
		}
		results = append(results, c.getIO(sc, &atts[j], keys[j], int32(j)))
	}

	// Phase 3: validate once and commit everything under one lock.
	c.mu.Lock()
	conflict := false
	for j := range atts {
		if !atts[j].resolved {
			conflict = !c.epochValidLocked(&atts[j])
			break
		}
	}
	if !conflict {
		c.publishPendsLocked(sc)
		for j := range atts {
			if !atts[j].resolved {
				c.commitGetLocked(sc, &atts[j], &results[j], false)
			}
		}
		c.mu.Unlock()
	} else {
		// Account the aborted attempts' real device reads, discard their
		// untrusted pages, and redo the unresolved keys under the held
		// lock (the pre-concurrent behavior; exact and conflict-free).
		for j := range atts {
			if atts[j].resolved {
				continue
			}
			r := &results[j]
			c.stats.FlashReadOps += r.readOps
			c.stats.FlashBytesRead += r.readBytes
			c.stats.ReadErrors += r.readErrs
		}
		for i := range sc.pends {
			if p := &sc.pends[i]; p.page != nil {
				sc.freePages = append(sc.freePages, p.page)
			}
			sc.pends[i].page, sc.pends[i].err = nil, nil
		}
		for j := range atts {
			if atts[j].resolved {
				continue
			}
			sc.resetPlan()
			att := getAttempt{fp: atts[j].fp, o: atts[j].o, start: start}
			sc.probes.Reuse(att.fp, c.bfBits)
			c.planGetLocked(sc, &att, keys[j], allPends)
			if att.resolved {
				atts[j] = att
				continue
			}
			r := c.getIO(sc, &att, keys[j], allPends)
			c.commitGetLocked(sc, &att, &r, true)
			atts[j], results[j] = att, r
		}
		c.mu.Unlock()
	}

	for j := range atts {
		if atts[j].resolved {
			emit(j, atts[j].val, atts[j].hit)
		} else {
			emit(j, results[j].val, results[j].outcome == ioHit)
		}
	}

	// Return the arenas without retaining value bytes in the pool.
	for j := range atts {
		atts[j].val = nil
		results[j].val = nil
	}
	sc.atts, sc.results = atts[:0], results[:0]
}
