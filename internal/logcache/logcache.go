// Package logcache implements the log-structured flash cache baseline
// ("Log" in the paper's Figure 12a).
//
// Objects are buffered into page-sized append buffers and written
// sequentially into zones; an exact in-memory index maps every object to
// its flash location. Eviction is FIFO at zone granularity. This design
// achieves near-ideal write amplification (the paper measures 1.08) at the
// cost of the highest memory overhead (>100 bits per object for the exact
// index, §2.3).
package logcache

import (
	"fmt"
	"sync"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/hashing"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Config configures the log cache.
type Config struct {
	// Device is the zoned device; the cache uses zones [ZoneBase,
	// ZoneBase+Zones).
	Device   device.Device
	ZoneBase int
	Zones    int // 0 means all device zones
}

// loc packs an object's flash page and intra-page byte offset. page == -1
// means the object is still in the open append buffer at offset off.
type loc struct {
	page int32
	off  int32
}

// Cache is the log-structured engine. Safe for concurrent use. Delete is
// native (the exact index); the batch and deferred-write calls are
// cachelib.PerKey's loops.
type Cache struct {
	cachelib.PerKey
	cfg      Config
	dev      device.Device
	pageSize int

	mu        sync.Mutex
	index     map[uint64]loc
	perZone   [][]uint64 // fingerprints appended per local zone
	ring      []int      // local zone ids in fill order (oldest first)
	openZone  int        // local zone receiving appends, -1 when none
	freeZones []int
	openBuf   []byte           // open page buffer
	openFPs   map[uint64]int32 // fp -> offset within openBuf
	scratch   []byte

	stats cachelib.Stats
	hist  metrics.Histogram
}

// New creates a log cache over the device's zone range.
func New(cfg Config) (*Cache, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("logcache: nil device")
	}
	if cfg.Zones == 0 {
		cfg.Zones = cfg.Device.Zones() - cfg.ZoneBase
	}
	if cfg.Zones < 2 || cfg.ZoneBase+cfg.Zones > cfg.Device.Zones() {
		return nil, fmt.Errorf("logcache: invalid zone range base=%d zones=%d", cfg.ZoneBase, cfg.Zones)
	}
	c := &Cache{
		cfg:      cfg,
		dev:      cfg.Device,
		pageSize: cfg.Device.PageSize(),
		index:    make(map[uint64]loc),
		perZone:  make([][]uint64, cfg.Zones),
		openZone: -1,
		openBuf:  make([]byte, 0, cfg.Device.PageSize()),
		openFPs:  make(map[uint64]int32),
		scratch:  make([]byte, cfg.Device.PageSize()),
	}
	c.PerKey = cachelib.PerKeyOver(c)
	for z := cfg.Zones - 1; z >= 0; z-- {
		c.freeZones = append(c.freeZones, z)
	}
	return c, nil
}

var _ cachelib.Engine = (*Cache)(nil)

// Name implements cachelib.Engine.
func (c *Cache) Name() string { return "Log" }

// Close implements cachelib.Engine.
func (c *Cache) Close() error { return nil }

// ReadLatency implements cachelib.Engine.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// Stats implements cachelib.Engine.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// MemoryBitsPerObject returns the modeled index cost of the log design per
// §2.3: a 29-bit flash offset, 29-bit tag, and 64-bit next pointer.
func (c *Cache) MemoryBitsPerObject() float64 { return 29 + 29 + 64 }

// Set appends the object to the log and indexes it.
func (c *Cache) Set(key, value []byte) error {
	need := setblock.EntrySize(len(key), len(value))
	if need > c.pageSize || len(key) > 255 || len(value) > 65535 {
		return fmt.Errorf("logcache: object of %d bytes exceeds page size %d", need, c.pageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := hashing.Fingerprint(key)
	if need > c.pageSize-len(c.openBuf) {
		if err := c.flushOpenPage(); err != nil {
			return err
		}
	}
	off := int32(len(c.openBuf))
	c.openBuf = setblock.AppendEntry(c.openBuf, fp, key, value)
	c.index[fp] = loc{page: -1, off: off}
	c.openFPs[fp] = off
	c.stats.Sets++
	c.stats.LogicalBytes += uint64(len(key) + len(value))
	return nil
}

// flushOpenPage writes the open buffer as one page, updating index entries
// from buffer locations to flash locations.
func (c *Cache) flushOpenPage() error {
	if err := c.ensureOpenZone(); err != nil {
		return err
	}
	devZone := c.cfg.ZoneBase + c.openZone
	page, _, err := c.dev.AppendPage(devZone, c.openBuf)
	if err != nil {
		return err
	}
	c.stats.FlashBytesWritten += uint64(c.pageSize)
	c.stats.DeviceBytesWritten += uint64(c.pageSize)
	for fp, off := range c.openFPs {
		if l, ok := c.index[fp]; ok && l.page == -1 && l.off == off {
			c.index[fp] = loc{page: int32(page), off: off}
			c.perZone[c.openZone] = append(c.perZone[c.openZone], fp)
		}
		delete(c.openFPs, fp)
	}
	c.openBuf = c.openBuf[:0]
	if c.dev.ZoneWP(devZone) >= c.dev.PagesPerZone() {
		c.openZone = -1
	}
	return nil
}

// ensureOpenZone makes sure an append target exists, evicting the oldest
// zone (FIFO) when the free pool is empty.
func (c *Cache) ensureOpenZone() error {
	if c.openZone >= 0 {
		return nil
	}
	if len(c.freeZones) == 0 {
		if err := c.evictOldestZone(); err != nil {
			return err
		}
	}
	c.openZone = c.freeZones[len(c.freeZones)-1]
	c.freeZones = c.freeZones[:len(c.freeZones)-1]
	c.ring = append(c.ring, c.openZone)
	return nil
}

func (c *Cache) evictOldestZone() error {
	if len(c.ring) == 0 {
		return fmt.Errorf("logcache: no zone to evict")
	}
	victim := c.ring[0]
	c.ring = c.ring[1:]
	lo := int32((c.cfg.ZoneBase + victim) * c.dev.PagesPerZone())
	hi := lo + int32(c.dev.PagesPerZone())
	for _, fp := range c.perZone[victim] {
		if l, ok := c.index[fp]; ok && l.page >= lo && l.page < hi {
			delete(c.index, fp)
			c.stats.Evictions++
		}
	}
	c.perZone[victim] = c.perZone[victim][:0]
	if _, err := c.dev.ResetZone(c.cfg.ZoneBase + victim); err != nil {
		return err
	}
	c.freeZones = append(c.freeZones, victim)
	return nil
}

// Delete implements cachelib.Engine natively: the exact index makes
// deletion a map removal — the log entry becomes dead space reclaimed by
// the zone's FIFO eviction, exactly like an overwrite.
func (c *Cache) Delete(key []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Deletes++
	fp := hashing.Fingerprint(key)
	if _, ok := c.index[fp]; ok {
		delete(c.index, fp)
		delete(c.openFPs, fp)
	}
	return nil
}

// Get looks the object up in the exact index and reads its log page.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Gets++
	start := c.dev.Clock().Now()
	fp := hashing.Fingerprint(key)
	l, ok := c.index[fp]
	if !ok {
		c.hist.Record(time.Microsecond)
		return nil, false
	}
	var buf []byte
	var done time.Duration
	if l.page == -1 {
		buf = c.openBuf
		done = start + time.Microsecond
	} else {
		d, err := c.dev.ReadPage(int(l.page), c.scratch)
		if err != nil {
			c.stats.ReadErrors++
			c.hist.Record(time.Microsecond)
			return nil, false
		}
		c.stats.FlashReadOps++
		c.stats.FlashBytesRead += uint64(c.pageSize)
		buf = c.scratch
		done = d
	}
	e, _, ok := setblock.DecodeEntry(buf, int(l.off))
	c.hist.Record(done - start + time.Microsecond)
	if !ok || e.FP != fp || string(e.Key) != string(key) {
		return nil, false
	}
	c.stats.Hits++
	return append([]byte(nil), e.Value...), true
}
