// Package fairywren implements the FairyWREN hierarchical baseline ("FW" in
// the paper): an HLog front tier feeding a set-associative back tier that is
// itself log-structured on a zoned device through a host-managed FTL.
//
// Two properties distinguish it from Kangaroo (§3.1):
//
//   - Hot/cold set division halves the log-to-set hash range. We model the
//     division as set pairs: each set slot owns a primary page (migration
//     target) and an overflow page that absorbs accessed ("hot") objects
//     displaced from the primary, so the full capacity stays usable while
//     migration rewrites only 4 KB (the paper's ½·N′_Set factor in Eq. 5).
//   - Garbage collection is folded into migration (Case 3.2): when a zone is
//     reclaimed, each valid primary page is rewritten merged with all HLog
//     objects mapped to its set — the paper's "active migration". Overflow
//     pages relocate unchanged.
//
// The package instruments passive/active migration batch sizes and the
// passive fraction p, which Figures 4, 5, 6 and 14 are built from.
//
// Composition: the front tier is the hlog.Front Kangaroo uses. The set tier
// is FairyWREN's own machine — host-mapped primary/overflow pages, GC folded
// into migration — sharing with setcache.Tier only how a filter is sized
// and rebuilt. Cache owns the one mutex, cachelib.Stats and histogram; the
// lock-free front accounts into them. cachelib.PerKey's loops and a
// cachelib.DeleteShadow make it a full cachelib.Engine without being part
// of the design.
package fairywren

import (
	"fmt"
	"sync"
	"time"

	"nemo/internal/bloom"
	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/hashing"
	"nemo/internal/hlog"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
	"nemo/internal/setcache"
)

// Config configures the FairyWREN engine. The zero value of every field but
// Device is the paper's Table 4 configuration.
type Config struct {
	Device device.Device
	// ZoneBase is the first device zone the engine owns; Zones is how many
	// (0 means all zones from ZoneBase). A sharded deployment (NewSharded)
	// gives each shard its own disjoint range of one device.
	ZoneBase int
	Zones    int
	// LogRatio is the fraction of zones given to HLog (Table 4: 5%).
	LogRatio float64
	// OPRatio is the fraction of the set tier reserved for GC headroom
	// (the paper's X, §3.2; Table 4: 5%).
	OPRatio float64
	// TargetObjsPerSet sizes the in-memory per-page Bloom filters.
	TargetObjsPerSet int
	// SpillMinBytes is the minimum accumulated hot spill that justifies an
	// overflow-page rewrite during migration (default pageSize/4).
	SpillMinBytes int
}

const (
	kindPrimary  = 0
	kindOverflow = 1

	// accessedCap bounds the in-memory recency set, in keys.
	accessedCap = 1 << 16
)

// Cache is the FairyWREN engine. Safe for concurrent use.
type Cache struct {
	cachelib.PerKey
	cfg      Config
	dev      device.Device
	log      *hlog.Front
	pageSize int
	ppz      int

	zoneBase int // first set-tier zone
	setZones int
	numSets  int
	freeGoal int

	mu sync.Mutex

	priLoc []int32 // set -> global page of primary (-1 unmapped)
	ovLoc  []int32 // set -> global page of overflow (-1 unmapped)
	// pageOwner maps local set-tier page -> set*2+kind, -1 invalid.
	pageOwner []int32
	validCnt  []int
	zoneSeq   []uint64 // fill-order stamp per local zone (for FIFO-ish wear)
	seq       uint64
	open      int
	freeZones []int
	inGC      bool

	priFilters []*bloom.Filter
	ovFilters  []*bloom.Filter

	accessed map[uint64]struct{}
	deleted  cachelib.DeleteShadow

	scratch  []byte
	scratch2 []byte
	stats    cachelib.Stats
	mig      MigrationStats
	hist     metrics.Histogram
}

// MigrationStats instruments the migration machinery (Figures 4–6).
type MigrationStats struct {
	// PassiveCDF / ActiveCDF record newly written log objects per set
	// write for Case 2 / Case 3.2 respectively.
	PassiveCDF *metrics.IntCDF
	ActiveCDF  *metrics.IntCDF
	PassiveRMW uint64
	ActiveRMW  uint64
	// OverflowWrites counts hot-spill overflow page rewrites;
	// Relocations counts plain GC copies of overflow pages.
	OverflowWrites uint64
	Relocations    uint64
	GCRuns         uint64
}

// PassiveFraction returns p, the fraction of set RMWs that were passive
// (§3.2.3). Returns 1 before any migration.
func (m MigrationStats) PassiveFraction() float64 {
	total := m.PassiveRMW + m.ActiveRMW
	if total == 0 {
		return 1
	}
	return float64(m.PassiveRMW) / float64(total)
}

// New creates the engine.
func New(cfg Config) (*Cache, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("fairywren: nil device")
	}
	if cfg.LogRatio == 0 {
		cfg.LogRatio = 0.05
	}
	if cfg.OPRatio == 0 {
		cfg.OPRatio = 0.05
	}
	if cfg.TargetObjsPerSet == 0 {
		cfg.TargetObjsPerSet = 40
	}
	if cfg.SpillMinBytes == 0 {
		cfg.SpillMinBytes = cfg.Device.PageSize() / 4
	}
	logZones, setZones, err := hlog.SplitZones(cfg.Device, cfg.ZoneBase, cfg.Zones, cfg.LogRatio)
	if err != nil {
		return nil, fmt.Errorf("fairywren: %w", err)
	}
	ppz := cfg.Device.PagesPerZone()
	setPages := setZones * ppz
	freeGoal := int(cfg.OPRatio * float64(setZones))
	if freeGoal < 1 {
		freeGoal = 1
	}
	numSets := int(float64(setPages) * (1 - cfg.OPRatio) / 2)
	if numSets < 1 {
		return nil, fmt.Errorf("fairywren: no usable sets")
	}
	c := &Cache{
		cfg:        cfg,
		dev:        cfg.Device,
		pageSize:   cfg.Device.PageSize(),
		ppz:        ppz,
		zoneBase:   cfg.ZoneBase + logZones,
		setZones:   setZones,
		numSets:    numSets,
		freeGoal:   freeGoal,
		priLoc:     make([]int32, numSets),
		ovLoc:      make([]int32, numSets),
		pageOwner:  make([]int32, setPages),
		validCnt:   make([]int, setZones),
		zoneSeq:    make([]uint64, setZones),
		open:       -1,
		priFilters: make([]*bloom.Filter, numSets),
		ovFilters:  make([]*bloom.Filter, numSets),
		accessed:   make(map[uint64]struct{}),
		scratch:    make([]byte, cfg.Device.PageSize()),
		scratch2:   make([]byte, cfg.Device.PageSize()),
		mig: MigrationStats{
			PassiveCDF: metrics.NewIntCDF(10),
			ActiveCDF:  metrics.NewIntCDF(10),
		},
	}
	c.PerKey = cachelib.PerKeyOver(c)
	for i := range c.priLoc {
		c.priLoc[i] = -1
		c.ovLoc[i] = -1
	}
	for i := range c.pageOwner {
		c.pageOwner[i] = -1
	}
	for z := setZones - 1; z >= 0; z-- {
		c.freeZones = append(c.freeZones, z)
	}
	if c.log, err = hlog.NewFront(cfg.Device, cfg.ZoneBase, logZones, &c.stats, &c.hist); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements cachelib.Engine.
func (c *Cache) Name() string { return "FW" }

var _ cachelib.Engine = (*Cache)(nil)

// Close implements cachelib.Engine.
func (c *Cache) Close() error { return nil }

// ReadLatency is the engine's histogram of per-GET virtual latencies.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// NumSets returns the log-to-set hash range (half the usable page count:
// the hot/cold division of §3.2).
func (c *Cache) NumSets() int { return c.numSets }

// LogPages returns N_Log, the HLog capacity in pages (for Eq. 6 checks).
func (c *Cache) LogPages() int { return c.log.PageCapacity() }

// Migration returns a snapshot of the migration instrumentation.
func (c *Cache) Migration() MigrationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mig
}

// ResetMigrationCDFs clears the batch-size CDFs (phase-split experiments).
func (c *Cache) ResetMigrationCDFs() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mig.PassiveCDF = metrics.NewIntCDF(10)
	c.mig.ActiveCDF = metrics.NewIntCDF(10)
}

// Stats implements cachelib.Engine. FairyWREN integrates DLWA into ALWA
// (host FTL), so both write counters are identical.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.FlashBytesWritten += c.log.Stats().PagesWritten * uint64(c.pageSize)
	s.DeviceBytesWritten = s.FlashBytesWritten
	return s
}

// MemoryBitsPerObject models Table 6's FW column (≈9.9 bits/obj).
func (c *Cache) MemoryBitsPerObject() float64 {
	logShare := c.cfg.LogRatio * 48 // 48-bit log entries over 5% of objects
	setShare := 3.1 + setcache.BloomBitsPerObj
	return logShare + setShare + 0.8
}

func (c *Cache) setOf(fp uint64) int32 {
	return int32(hashing.Derive(fp, 0) % uint64(c.numSets))
}

func (c *Cache) markAccessed(fp uint64) {
	if len(c.accessed) >= accessedCap {
		c.accessed = make(map[uint64]struct{}) // crude cooling: reset
	}
	c.accessed[fp] = struct{}{}
}

// Set appends to the HLog, running passive migration (Case 2) when the log
// fills.
func (c *Cache) Set(key, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := hashing.Fingerprint(key)
	err := c.log.Set(c.setOf(fp), fp, key, value, func(set int32, objs []setblock.Entry) error {
		return c.rewritePrimary(set, objs, true)
	})
	if err != nil {
		return err
	}
	c.deleted.Lift(key)
	return nil
}

// Delete implements cachelib.Engine with the delete shadow: no flash write.
func (c *Cache) Delete(key []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deleted.Delete(key, &c.stats)
	return nil
}

// rewritePrimary merges objs into set's primary page and appends the new
// copy to the open zone. Displaced accessed objects spill to the overflow
// page when they amount to enough bytes (hot/cold division); cold ones are
// evicted.
func (c *Cache) rewritePrimary(set int32, objs []setblock.Entry, passive bool) error {
	blk, _, err := c.readPage(c.priLoc[set])
	if err != nil {
		return err
	}
	var spill []setblock.Entry
	spillBytes := 0
	for _, o := range objs {
		blk.InsertEvicting(o, func(e setblock.Entry) {
			if _, hot := c.accessed[e.FP]; hot {
				spill = append(spill, e)
				spillBytes += setblock.EntrySize(len(e.Key), len(e.Value))
			} else {
				c.stats.Evictions++
			}
		})
	}
	if err := c.placePage(set, kindPrimary, blk); err != nil {
		return err
	}
	if passive {
		c.mig.PassiveRMW++
		c.mig.PassiveCDF.Add(len(objs))
	} else {
		c.mig.ActiveRMW++
		c.mig.ActiveCDF.Add(len(objs))
	}
	if len(spill) > 0 {
		if spillBytes >= c.cfg.SpillMinBytes {
			return c.rewriteOverflow(set, spill)
		}
		c.stats.Evictions += uint64(len(spill))
	}
	return nil
}

// rewriteOverflow merges hot spill into the set's overflow page.
func (c *Cache) rewriteOverflow(set int32, objs []setblock.Entry) error {
	blk, _, err := c.readPage(c.ovLoc[set])
	if err != nil {
		return err
	}
	for _, o := range objs {
		blk.InsertEvicting(o, func(setblock.Entry) { c.stats.Evictions++ })
	}
	if err := c.placePage(set, kindOverflow, blk); err != nil {
		return err
	}
	c.mig.OverflowWrites++
	return nil
}

// readPage loads and parses a set-tier page, returning the read's completion
// time, or an empty block for unmapped locations.
func (c *Cache) readPage(page int32) (*setblock.Block, time.Duration, error) {
	if page < 0 {
		return setblock.New(c.pageSize), 0, nil
	}
	done, err := c.dev.ReadPage(int(page), c.scratch)
	if err != nil {
		return nil, 0, err
	}
	c.stats.FlashReadOps++
	c.stats.FlashBytesRead += uint64(c.pageSize)
	blk, err := setblock.Parse(c.scratch, c.pageSize)
	return blk, done, err
}

// placePage appends the block as the new (set, kind) page, invalidating the
// old copy and rebuilding the in-memory filter.
func (c *Cache) placePage(set int32, kind int, blk *setblock.Block) error {
	page, err := c.appendSetPage(blk.AppendTo(c.scratch2[:0]), set, kind)
	if err != nil {
		return err
	}
	if kind == kindPrimary {
		c.invalidate(c.priLoc[set])
		c.priLoc[set] = page
		c.priFilters[set] = setcache.RebuildFilter(c.priFilters[set], blk, c.cfg.TargetObjsPerSet)
	} else {
		c.invalidate(c.ovLoc[set])
		c.ovLoc[set] = page
		c.ovFilters[set] = setcache.RebuildFilter(c.ovFilters[set], blk, c.cfg.TargetObjsPerSet)
	}
	return nil
}

func (c *Cache) invalidate(page int32) {
	if page < 0 {
		return
	}
	local := int(page) - c.zoneBase*c.ppz
	if c.pageOwner[local] >= 0 {
		c.pageOwner[local] = -1
		c.validCnt[local/c.ppz]--
	}
}

// appendSetPage writes one page into the open set-tier zone, running GC
// when free zones drop to the OP reserve.
func (c *Cache) appendSetPage(data []byte, set int32, kind int) (int32, error) {
	if c.open < 0 || c.dev.ZoneWP(c.zoneBase+c.open) >= c.ppz {
		c.open = -1
		if !c.inGC && len(c.freeZones) <= c.freeGoal {
			if err := c.gc(); err != nil {
				return 0, err
			}
		}
	}
	// GC relocations may have opened (and partially filled) a zone; keep
	// appending into it instead of leaking it.
	if c.open < 0 || c.dev.ZoneWP(c.zoneBase+c.open) >= c.ppz {
		if len(c.freeZones) == 0 {
			return 0, fmt.Errorf("fairywren: out of set zones")
		}
		c.open = c.freeZones[len(c.freeZones)-1]
		c.freeZones = c.freeZones[:len(c.freeZones)-1]
		c.seq++
		c.zoneSeq[c.open] = c.seq
	}
	page, _, err := c.dev.AppendPage(c.zoneBase+c.open, data)
	if err != nil {
		return 0, err
	}
	c.stats.FlashBytesWritten += uint64(c.pageSize)
	local := page - c.zoneBase*c.ppz
	c.pageOwner[local] = set*2 + int32(kind)
	c.validCnt[local/c.ppz]++
	return int32(page), nil
}

// gc reclaims set-tier zones (Case 3.2): valid primary pages are rewritten
// merged with their sets' pending log objects (active migration); overflow
// pages relocate unchanged.
//
// A set tier that is too small (or fully live) can make reclaim lose ground
// to its own relocations: every reclaimed zone is immediately refilled by
// the rewrites it forced, and the loop never reaches the free goal. The
// pass is therefore bounded at several sweeps over the tier — far beyond
// any productive GC — and surfaces the condition as an error instead of
// spinning forever, so undersized configurations fail loudly in harnesses
// and tests.
func (c *Cache) gc() error {
	c.inGC = true
	defer func() { c.inGC = false }()
	c.mig.GCRuns++
	for tries := 0; len(c.freeZones) <= c.freeGoal; tries++ {
		if tries > 4*c.setZones {
			return fmt.Errorf("fairywren: gc made no progress after %d reclaims (set tier of %d zones too small or fully live)",
				tries, c.setZones)
		}
		victim := c.pickVictim()
		if victim < 0 {
			return fmt.Errorf("fairywren: gc found no victim")
		}
		base := victim * c.ppz
		for off := 0; off < c.ppz; off++ {
			owner := c.pageOwner[base+off]
			if owner < 0 {
				continue
			}
			set, kind := owner/2, int(owner%2)
			if kind == kindPrimary {
				objs, err := c.log.TakeSet(set)
				if err != nil {
					return err
				}
				if err := c.rewritePrimary(set, objs, false); err != nil {
					return err
				}
			} else {
				blk, _, err := c.readPage(c.ovLoc[set])
				if err != nil {
					return err
				}
				if err := c.placePage(set, kindOverflow, blk); err != nil {
					return err
				}
				c.mig.Relocations++
			}
		}
		if _, err := c.dev.ResetZone(c.zoneBase + victim); err != nil {
			return err
		}
		c.freeZones = append(c.freeZones, victim)
	}
	return nil
}

// pickVictim selects the oldest sealed zone (FIFO reclaim). The paper
// describes GC as reclaiming "an evicted erase unit" in write order, and
// its measured passive fraction (p ≈ 25% at 5% OP, i.e. mostly *active*
// migration) requires victims that still hold valid sets — greedy
// min-valid selection would almost always find a fully invalidated zone
// and never exercise Case 3.2. Fully invalid zones are still preferred
// when one exists (reclaiming them is free).
func (c *Cache) pickVictim() int {
	victim, bestSeq := -1, uint64(1)<<63
	for z := 0; z < c.setZones; z++ {
		if z == c.open || c.dev.ZoneWP(c.zoneBase+z) < c.ppz {
			continue
		}
		if c.validCnt[z] == 0 {
			return z
		}
		if c.zoneSeq[z] < bestSeq {
			victim, bestSeq = z, c.zoneSeq[z]
		}
	}
	return victim
}

// Get searches the HLog, then the primary page, then the overflow page.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted.Hides(key, &c.stats) {
		return nil, false
	}
	fp := hashing.Fingerprint(key)
	set := c.setOf(fp)
	v, hit := c.log.Get(set, fp, key, func(start time.Duration) ([]byte, bool) {
		return c.getFromSet(set, fp, key, start)
	})
	if hit {
		c.markAccessed(fp)
	}
	return v, hit
}

// getFromSet answers a GET the log could not: the primary page, then the
// overflow page, each read only if mapped and admitted by its filter. A
// page that cannot be read or parsed ends the GET as a miss counted in
// ReadErrors — the primary shadows the overflow, so an unreadable primary
// must not let an older overflow copy through.
func (c *Cache) getFromSet(set int32, fp uint64, key []byte, start time.Duration) ([]byte, bool) {
	for _, tier := range []struct {
		loc     int32
		filters []*bloom.Filter
	}{
		{c.priLoc[set], c.priFilters},
		{c.ovLoc[set], c.ovFilters},
	} {
		if tier.loc < 0 {
			continue
		}
		if f := tier.filters[set]; f != nil && !f.Test(fp) {
			continue
		}
		blk, done, err := c.readPage(tier.loc)
		if err != nil {
			c.stats.ReadErrors++
			break
		}
		if v, _, ok := blk.Lookup(fp, key); ok {
			c.stats.Hits++
			c.hist.Record(done - start + time.Microsecond)
			return append([]byte(nil), v...), true
		}
	}
	c.hist.Record(time.Microsecond)
	return nil, false
}
