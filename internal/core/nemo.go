package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/hashing"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Cache is one shard of a Nemo flash cache: NewSharded builds every one and
// Sharded.Shard returns it for diagnostics. Safe for concurrent use, and
// neither reads nor writes hold the shard mutex across flash I/O: GETs run
// a short locked plan and commit phase around unlocked device reads validated
// by the SG epoch (readpath.go), and SG flushes — including group sealing and
// eviction's victim read-back — run the mirrored seal / build+I/O / commit
// protocol (writepath.go), so foreground traffic on a shard overlaps both
// the reads of concurrent lookups and the appends of an in-flight flush.
// In-memory inserts, deletes, and the locked sub-phases still serialize on
// the shard mutex, so they touch each structure once: a GET's plan
// Bloom-tests the in-memory filters where they lie and leaves the lock with
// candidate addresses only, and a SET walks an in-memory set at most once,
// not at all when the set's presence word rules the key out (memsg.go).
//
// Consistency model: Get returns the most recent Set for a key as long as
// that copy is still cached. Because Nemo deliberately has no exact
// per-object index (§4.3), overwritten copies on flash are not deleted.
// With delayed flushing off, FIFO eviction always takes an older copy
// before a newer one, so no hit is stale (TestPropertyNeverStale). With it
// on, the newest copy can be sacrificed before it reaches flash, and then a
// Get may observe the previous still-cached value — and not only until that
// copy's SG ages out of the FIFO pool: with no newer copy to shadow it, a
// hot stale copy is written back into a younger SG at eviction and lives
// on (TestSacrificedOverwriteOutlivesFIFO). Hits never return corrupt or
// cross-key data — every entry carries a fingerprint and full key bytes
// that are verified on read. Workloads needing strict read-your-writes
// should treat overwrites as invalidations (delete-then-set at a higher
// layer), as with the paper's CacheLib deployment.
type Cache struct {
	cfg       Config
	dev       device.Device
	zoneBase  int // first device zone of this shard's slice
	pageSize  int
	setsPerSG int
	maxBFBits int // widest filter: SGsPerIndexGroup of them fill a page
	bfK       int // Bloom probes per key

	mu sync.Mutex

	// Buffered in-memory SGs: memq[0] is the front (next to flush),
	// memq[len-1] the rear.
	memq     []*memSG
	sacCount int

	// On-flash FIFO SG pool, oldest first. IDs are dense and increasing,
	// so pool position = id - pool[0].id.
	pool     []*flashSG
	nextSGID uint64

	groups    []*idxGroup // creation order; open group is the last unsealed
	nextGroup int
	icache    *pbfgCache

	// fetchBuf is the write-path PBFG fetch scratch (guarded by mu): a
	// cache-miss fetch lands here and icache.put copies it into the arena.
	fetchBuf []byte

	freeDataZones  []int
	freeIndexZones []int

	bytesSinceCool uint64

	stats cachelib.Stats
	extra NemoStats
	hist  metrics.Histogram

	probes *bloom.ProbeSet // write-path probe scratch (guarded by mu)

	// Flush protocol state (writepath.go). sealed is the detached front SG
	// of the in-flight flush: readers probe it under mu, the flush owner
	// inserts writeback survivors into it under mu and serializes it
	// unlocked once it is frozen. flushInFlight serializes flushes per
	// cache (waiters on flushCond coalesce); kit is the in-flight flush's
	// working memory, on loan from kits (one list for all shards of a
	// Sharded cache).
	sealed        *memSG
	flushInFlight bool
	flushCond     *sync.Cond
	kit           *flushKit
	kits          *kitPool

	// getPool recycles per-goroutine read-path scratch (probe sets,
	// snapshot arenas, candidate read buffers) so a steady-state Get
	// allocates nothing beyond the returned value copy. See readpath.go
	// for the plan/I-O/commit protocol these scratches serve.
	getPool sync.Pool

	// Background flush pipeline: the facade's pool, shared by every shard
	// (nil when Config.Flushers == 0). SetAsync hands full in-memory SGs to
	// the pool instead of flushing inline on the inserting goroutine;
	// flushPending (guarded by mu) bounds the outstanding jobs to one per
	// shard.
	flusher      *flusherPool
	flushPending bool

	// Device-fault circuit breaker (health.go), guarded by mu and timed on
	// the device clock; retries is the atomic transient-append-retry counter
	// (incremented unlocked in the build phase, folded into Stats on read).
	brk     breaker
	retries atomic.Uint64
}

// newShard builds one shard of a Sharded cache: cfg is the shard's derived
// Config, base the first device zone of its slice, and kits the facade's
// flush-kit list. NewSharded alone calls it; the flusher pool, restore and
// checkpoint belong to the facade.
func newShard(cfg Config, base int, kits *kitPool) (*Cache, error) {
	if err := cfg.validate(base); err != nil {
		return nil, err
	}
	dev := cfg.Device
	if cfg.SGsPerIndexGroup > bloom.MaxGroupMembers {
		return nil, fmt.Errorf("core: SGsPerIndexGroup %d exceeds the %d members one PBFG row load covers",
			cfg.SGsPerIndexGroup, bloom.MaxGroupMembers)
	}
	maxBFBits := dev.PageSize() * 8 / cfg.SGsPerIndexGroup &^ 63
	if maxBFBits < 64 {
		return nil, fmt.Errorf("core: %d filters of 64 bits exceed the %d-byte PBFG page; lower SGsPerIndexGroup",
			cfg.SGsPerIndexGroup, dev.PageSize())
	}
	if _, _, ok := logGeometry(dev.PagesPerZone(), dev.PageSize()); !ok {
		return nil, fmt.Errorf("core: %d-page zones overflow the in-memory SG log's 32-bit record addresses", dev.PagesPerZone())
	}
	if cfg.BreakerThreshold > 0 && cfg.BreakerProbeAfter == 0 {
		cfg.BreakerProbeAfter = time.Second
	}
	c := &Cache{
		cfg:       cfg,
		dev:       dev,
		pageSize:  dev.PageSize(),
		setsPerSG: dev.PagesPerZone(),
		maxBFBits: maxBFBits,
		bfK:       bloom.NumHashes(cfg.BloomFPR),
		zoneBase:  base,
		kits:      kits,
	}
	c.fetchBuf = make([]byte, c.pageSize)
	c.flushCond = sync.NewCond(&c.mu)
	c.probes = bloom.NewProbeSet(0, c.bfK)
	c.getPool.New = func() any {
		return &getScratch{probes: bloom.NewProbeSet(0, c.bfK)}
	}
	for i := 0; i < cfg.MemSGs(); i++ {
		c.memq = append(c.memq, newMemSG(c.setsPerSG, c.pageSize, kits))
	}
	for z := base + cfg.DataZones - 1; z >= base; z-- {
		c.freeDataZones = append(c.freeDataZones, z)
	}
	idxZones := IndexZonesFor(cfg.DataZones, cfg.SGsPerIndexGroup)
	for z := base + cfg.DataZones + idxZones - 1; z >= base+cfg.DataZones; z-- {
		c.freeIndexZones = append(c.freeIndexZones, z)
	}
	maxGroups := (cfg.DataZones + cfg.SGsPerIndexGroup - 1) / cfg.SGsPerIndexGroup
	capacity := int(cfg.CachedPBFGRatio * float64((maxGroups+1)*c.setsPerSG))
	c.icache = newPBFGCache(capacity, cfg.SGsPerIndexGroup, maxBFBits)
	return c, nil
}

// popZone removes the zone at the end of the free list, or reports false
// when the list is empty.
func popZone(free *[]int) (int, bool) {
	n := len(*free)
	if n == 0 {
		return 0, false
	}
	z := (*free)[n-1]
	*free = (*free)[:n-1]
	return z, true
}

// Name implements cachelib.Engine.
func (c *Cache) Name() string { return "Nemo" }

// Close implements cachelib.Engine. A shard holds nothing to release: the
// flusher pool and the final checkpoint are the facade's (Sharded.Close).
func (c *Cache) Close() error { return nil }

// ReadLatency implements cachelib.Engine.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// setOf maps a fingerprint to its intra-SG offset. Lane 0 keeps placement
// independent of the Bloom probe stream.
func (c *Cache) setOf(fp uint64) int {
	return int(hashing.Derive(fp, 0) % uint64(c.setsPerSG))
}

// Set inserts or updates an object (operation ❶, §4.1). Values must be
// non-empty — zero-length entries are the deletion tombstones (see Delete).
// Flushes triggered by this insert run inline on the calling goroutine; use
// SetAsync to hand them to the background flusher pool instead.
func (c *Cache) Set(key, value []byte) error {
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setLocked(fp, key, value, false)
}

// SetAsync implements cachelib.Engine: the in-memory insert is
// identical to Set, but when the rear-full trigger (or the delayed-flush
// sacrifice threshold) fires, the full front SG's flush is enqueued on the
// flusher pool instead of running inline — the flush is the p99 outlier of
// the Set path. Without a configured pool (Config.Flushers == 0) SetAsync
// degrades to the synchronous Set. Deferred flush errors surface on Drain
// or Close.
func (c *Cache) SetAsync(key, value []byte) error {
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setLocked(fp, key, value, c.flusher != nil)
}

// Drain implements cachelib.Engine: it blocks until every flush
// enqueued on the shared flusher pool — every shard's — has reached flash
// and returns the first deferred error. Callers must not hold the cache lock.
func (c *Cache) Drain() error {
	if c.flusher == nil {
		return nil
	}
	return c.flusher.drain()
}

// setLocked is the insert path shared by Set, SetAsync, and SetMany. async
// defers trigger-driven flushes to the flusher pool.
func (c *Cache) setLocked(fp uint64, key, value []byte, async bool) error {
	if len(value) == 0 {
		// Zero-length entries are the deletion tombstones (a tiny-object
		// cache has no use for empty values); admitting one through Set
		// would make the object unreadable while still counting as stored.
		return fmt.Errorf("core: zero-length values are reserved for deletion tombstones; use Delete")
	}
	if len(key)+len(value) > setblock.MaxObjectBytes(c.pageSize) || len(key) > 255 {
		return fmt.Errorf("core: object of %d bytes exceeds set size %d", setblock.EntrySize(len(key), len(value)), c.pageSize)
	}
	o := c.setOf(fp)
	probe, derr := c.breakerAllowWriteLocked()
	if derr != nil {
		return derr
	}
	if probe {
		// The half-open probe flushes inline even on the SetAsync path, so
		// the device verdict the breaker acts on is real, not deferred.
		async = false
	}
	err := c.setBodyLocked(fp, key, value, o, async)
	c.breakerWriteDoneLocked(probe, err)
	return err
}

// setBodyLocked is the insert body behind the breaker gate: placement,
// counters, and the rear-full flush trigger.
func (c *Cache) setBodyLocked(fp uint64, key, value []byte, o int, async bool) error {
	if err := c.placeLocked(fp, key, value, o, insNew, async); err != nil {
		return err
	}
	c.stats.Sets++
	if c.rearFullLocked() {
		if async && c.scheduleFlushLocked() {
			return nil
		}
		return c.flushFrontLocked()
	}
	return nil
}

// rearFullLocked is the rear-full flush trigger: flush the front once the
// rear is nearly full so a fresh SG keeps absorbing inserts (§4.2, buffered
// in-memory SGs). Shared by the insert path and the deferred-flush
// re-check so the two can never drift apart.
func (c *Cache) rearFullLocked() bool {
	return c.cfg.BufferedSGs && len(c.memq) > 1 &&
		c.memq[len(c.memq)-1].fillRate() >= rearFullRatio
}

// Delete invalidates key (cachelib.Engine). In-memory copies are removed
// exactly; because Nemo deliberately has no exact per-object index (§4.3),
// a still-cached flash copy cannot be erased in place — instead a
// zero-length tombstone entry is inserted, which shadows every older copy
// (Get searches newest-first) and suppresses hotness writeback through the
// Bloom shadow check, until the tombstone itself ages out of the FIFO pool
// along with everything it shadows.
func (c *Cache) Delete(key []byte) error {
	if len(key) > 255 {
		return fmt.Errorf("core: key of %d bytes exceeds the 255-byte limit", len(key))
	}
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(fp, key)
}

func (c *Cache) deleteLocked(fp uint64, key []byte) error {
	// Deletes are writes too (a tombstone may trigger a flush), so the
	// degraded shard rejects them with the sets; letting them through would
	// skew toward data loss exactly when the device is least trustworthy.
	probe, derr := c.breakerAllowWriteLocked()
	if derr != nil {
		return derr
	}
	err := c.deleteBodyLocked(fp, key)
	c.breakerWriteDoneLocked(probe, err)
	return err
}

func (c *Cache) deleteBodyLocked(fp uint64, key []byte) error {
	o := c.setOf(fp)
	c.stats.Deletes++
	for _, sg := range c.memq {
		sg.remove(o, fp, key)
	}
	// The sealed SG of an in-flight flush is immutable — its copy cannot be
	// removed and WILL land on flash at commit — so a copy there always
	// demands a tombstone (inserted into memq, hence newer: it shadows the
	// flash copy the moment it exists).
	sealedHas := false
	if c.sealed != nil {
		_, sealedHas = c.sealed.lookup(o, fp, key)
	}
	if len(c.pool) == 0 && !sealedHas {
		// No flash copies can exist: dropping in-memory copies suffices.
		return nil
	}
	if !sealedHas {
		// A tombstone is only needed when some SG's Bloom filter admits the
		// key might be on flash; definite absence (the common case for
		// upstream invalidations of never-admitted objects) costs no SG
		// space. A false positive merely inserts a harmless tombstone.
		may, err := c.mayExistOnFlashLocked(fp, o, 0)
		if err != nil {
			return err
		}
		if !may {
			return nil
		}
	}
	// placeLocked removes the in-memory copies (again, a no-op here)
	// before inserting, so exactly one zero-length version remains.
	return c.placeLocked(fp, key, nil, o, insTombstone, false)
}

// mayExistOnFlashLocked Bloom-tests every live SG with id ≥ minID for
// (fp, set o) — the same filters Get consults, fetched without charging the
// index-cache lookup stats (fetchPBFG; fetched pages enter the index cache so
// the cost amortizes over the hot sets). False positives are possible, false
// negatives are not.
func (c *Cache) mayExistOnFlashLocked(fp uint64, o int, minID uint64) (may bool, err error) {
	c.probes.Reuse(fp)
	err = c.walkCandidates(o, c.probes, minID, c.fetchPBFG, func(*flashSG, bool) bool {
		may = true
		return false
	})
	return may, err
}

// placeLocked places one entry — fresh object, writeback survivor, or
// tombstone — into the in-memory SGs, applying the paper's fill-rate
// techniques. async defers trigger-driven flushes to the flusher pool.
func (c *Cache) placeLocked(fp uint64, key, value []byte, o int, class insClass, async bool) error {
	for attempt := 0; attempt <= len(c.memq)+2; attempt++ {
		// Remove shadow copies so at most one in-memory version exists. This
		// is also what makes the key absent at the append below (memSG's
		// invariant), so it runs again on every retry: the flush a retry
		// follows released the lock, and a concurrent SET of the same key may
		// have placed its copy meanwhile.
		for _, sg := range c.memq {
			sg.remove(o, fp, key)
		}
		// Insert into the available SG closest to the front (§4.2 ①).
		for _, sg := range c.memq {
			if sg.canFit(o, len(key), len(value)) {
				sg.insert(o, fp, key, value, class)
				if class == insNew {
					c.stats.LogicalBytes += uint64(len(key) + len(value))
				}
				return nil
			}
		}
		if c.cfg.DelayedFlush {
			// Technique P: sacrifice the oldest entries of the front SG's
			// target set instead of flushing (§4.2 ②).
			front := c.memq[0]
			n := front.sacrifice(o, setblock.EntrySize(len(key), len(value)))
			c.sacCount += n
			c.extra.Sacrificed += uint64(n)
			c.stats.Evictions += uint64(n)
			if !front.insert(o, fp, key, value, class) {
				// The set would not yield enough room — it is packed with
				// deletion tombstones, which sacrifice must preserve. Flush
				// the front (tombstones move to flash, where they keep
				// shadowing) and retry.
				if err := c.flushFrontLocked(); err != nil {
					return err
				}
				continue
			}
			if class == insNew {
				c.stats.LogicalBytes += uint64(len(key) + len(value))
			}
			if c.sacCount >= c.cfg.FlushThreshold {
				if async && c.sacCount < asyncSacBudget*c.cfg.FlushThreshold &&
					c.scheduleFlushLocked() {
					return nil
				}
				// Backpressure: flush inline — synchronously, or when a
				// deferred flush lags so far behind that continued
				// sacrificing would visibly cost hit ratio.
				return c.flushFrontLocked()
			}
			return nil
		}
		// Naïve flush-on-collision: flush the front SG and retry. This
		// must stay synchronous even in async mode — the insert needs the
		// space now.
		if err := c.flushFrontLocked(); err != nil {
			return err
		}
	}
	return fmt.Errorf("core: insert did not converge")
}

// asyncSacBudget bounds how far past the flush threshold delayed flushing
// may sacrifice while a deferred flush is in the pool's queue; beyond it
// the insert path flushes inline. Without the bound, a lagging flusher
// would let the front SG cannibalize itself and hit ratio would sag.
const asyncSacBudget = 2

// scheduleFlushLocked enqueues this cache on the flusher pool, bounding the
// outstanding jobs to one. It reports false when the flush could not be
// deferred (no pool, or the pool was stopped by a racing Close) — the
// caller then flushes inline.
func (c *Cache) scheduleFlushLocked() bool {
	if c.flusher == nil {
		return false
	}
	if c.flushPending {
		return true
	}
	if !c.flusher.enqueue(c) {
		return false
	}
	c.flushPending = true
	return true
}

// asyncFlushDueLocked re-checks the flush triggers when a deferred job
// executes: an intervening synchronous flush (e.g. the flush-on-collision
// path) may have already rotated the queue, in which case flushing the
// fresh front would only hurt the fill rate.
func (c *Cache) asyncFlushDueLocked() bool {
	return c.rearFullLocked() || c.sacCount >= c.cfg.FlushThreshold
}

// Get looks up an object (operation ❷, §4.1): in-memory SGs first, then
// PBFG-identified candidate SGs read in parallel. Flash I/O runs outside
// the shard mutex under the plan/I-O/commit protocol (readpath.go), so
// concurrent Gets on one shard overlap their device reads. A Get is a
// one-key getBatch.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	sc := c.borrowScratch()
	defer c.returnScratch(sc)
	sc.one[0] = key
	c.getBatch(sc, sc.one[:])
	return sc.outcome(0)
}

// hotTail is how many of the oldest pool SGs track hotness: HotTrackTail
// of the pool, at least one.
func (c *Cache) hotTail() int {
	return max(1, int(HotTrackTail*float64(len(c.pool))))
}

// markHot records an access bit when the SG is inside the tracked tail of
// the pool (the object's later-life stage, §4.4).
func (c *Cache) markHot(sg *flashSG, o, slot int) {
	if len(c.pool) > 0 && int(sg.id-c.pool[0].id) < c.hotTail() {
		sg.setBit(o, slot)
	}
}

func (c *Cache) poolCapacityBytes() int {
	return c.cfg.DataZones * c.dev.PagesPerZone() * c.pageSize
}

func (c *Cache) openGroup() *idxGroup {
	if n := len(c.groups); n > 0 && !c.groups[n-1].sealed &&
		len(c.groups[n-1].members) < c.cfg.SGsPerIndexGroup {
		return c.groups[n-1]
	}
	g := &idxGroup{id: c.nextGroup}
	c.nextGroup++
	c.groups = append(c.groups, g)
	return g
}

// shadowedByNewer reports whether a newer version of (fp, key) may exist
// anywhere ahead of the evicted SG: the in-memory SGs — including the
// sealed SG of an in-flight flush, whose contents are bound for flash and
// strictly newer than any eviction victim — are checked exactly, and newer
// flash SGs through their Bloom filters (fetching PBFG pages on demand — the
// paper's write-back reads). A Bloom positive conservatively suppresses the
// writeback: an object may be dropped early, but a stale version is never
// resurrected over a fresh one.
func (c *Cache) shadowedByNewer(fp uint64, o int, newerThan uint64, key []byte) (bool, error) {
	for _, sg := range c.memq {
		if _, ok := sg.lookup(o, fp, key); ok {
			return true, nil
		}
	}
	if c.sealed != nil {
		if _, ok := c.sealed.lookup(o, fp, key); ok {
			return true, nil
		}
	}
	return c.mayExistOnFlashLocked(fp, o, newerThan+1)
}

// dropDeadGroups trims fully dead groups from the front of the group list
// and drops their members' meta: pooled read scratch may still point at a
// retired SG struct, but must not keep its meta alive.
func (c *Cache) dropDeadGroups() {
	i := 0
	for i < len(c.groups) && c.groups[i].sealed && c.groups[i].liveCount == 0 {
		for _, m := range c.groups[i].members {
			m.meta = nil
		}
		i++
	}
	if i > 0 {
		c.groups = append([]*idxGroup(nil), c.groups[i:]...)
	}
}

// coolLocked is the periodic cooling pass (§4.4): hotness bits survive only
// for sets whose PBFG is memory-resident.
func (c *Cache) coolLocked() {
	c.extra.CoolingRuns++
	for i := range min(c.hotTail(), len(c.pool)) {
		sg := c.pool[i]
		if !sg.hasBits {
			continue
		}
		for o := 0; o < c.setsPerSG; o++ {
			if sg.setCount(o) == 0 {
				continue
			}
			if !c.pbfgResident(sg.group, o) {
				sg.clearSet(o)
			}
		}
	}
}

// Flush forces the front in-memory SG to flash (tests, and Sharded.Flush
// over every shard). Unlike the trigger-driven internal
// callers — which coalesce with a flush already in flight — Flush waits
// any in-flight flush out and then flushes the current front regardless,
// so objects inserted after that flush sealed still reach the device.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waitFlushIdleLocked()
	return c.flushFrontLocked()
}
