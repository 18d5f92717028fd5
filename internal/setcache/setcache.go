// Package setcache implements the set-associative flash cache baseline
// ("Set" in the paper's Figure 12a), modeled on CacheLib's BigHash engine.
//
// Keys hash into fixed 4 KB sets over a conventional (FTL-backed) SSD with
// heavy over-provisioning (Meta runs 50% OP in production, §2.3: opRatio).
// Every insert is a read-modify-write of the whole set, which is exactly
// the ~16-20× application-level write amplification the paper attributes
// to this design for tiny objects. Per-set in-memory Bloom filters (a few bits
// per object) avoid flash reads on most misses, matching CacheLib.
//
// Composition: Tier (tier.go) is the design — FTL-backed set pages, their
// filters, the read-merge-write and the filter-gated lookup — lock-free and
// without counters. Cache is the engine: one mutex, one cachelib.Stats and
// one histogram around a Tier that accounts into them, plus what makes it a
// full cachelib.Engine without being part of the design — cachelib.PerKey's
// loops and a cachelib.DeleteShadow. internal/kangaroo puts the same Tier
// behind a log.
package setcache

import (
	"fmt"
	"sync"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/hashing"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Config configures the set-associative cache and its Tier. The zero value
// of every field but Device is the paper's Table 4 configuration. The FTL's
// over-provisioning is opRatio here and NewTier's argument behind a log.
type Config struct {
	// Device is the zoned device to build the conventional FTL on.
	Device   device.Device
	ZoneBase int
	Zones    int // 0 means all device zones from ZoneBase
	// TargetObjsPerSet sizes the per-set Bloom filters (default 40).
	TargetObjsPerSet int
}

// opRatio is the set cache's FTL over-provisioning: Meta's production 50%
// (§2.3).
const opRatio = 0.5

// Cache is the set-associative engine. Safe for concurrent use.
type Cache struct {
	cachelib.PerKey
	mu      sync.Mutex // covers tier, deleted, stats and hist
	tier    *Tier
	deleted cachelib.DeleteShadow
	stats   cachelib.Stats
	hist    metrics.Histogram
}

var _ cachelib.Engine = (*Cache)(nil)

// New creates the engine.
func New(cfg Config) (*Cache, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("setcache: nil device")
	}
	c := new(Cache)
	c.PerKey = cachelib.PerKeyOver(c)
	var err error
	if c.tier, err = NewTier(cfg, opRatio, &c.stats, &c.hist); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements cachelib.Engine.
func (c *Cache) Name() string { return "Set" }

// Close implements cachelib.Engine.
func (c *Cache) Close() error { return nil }

// ReadLatency is the engine's histogram of per-GET virtual latencies.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// Stats implements cachelib.Engine, folding FTL GC into the device counter.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	fs := c.tier.FTLStats()
	s.DeviceBytesWritten = (fs.HostPagesWritten + fs.GCPagesWritten) * uint64(c.tier.pageSize)
	return s
}

// DLWA returns the device-level write amplification from FTL GC.
func (c *Cache) DLWA() float64 { return c.tier.FTLStats().DLWA() }

// MemoryBitsPerObject returns the modeled in-memory cost (Bloom bits only).
func (c *Cache) MemoryBitsPerObject() float64 { return BloomBitsPerObj }

// Set performs the read-modify-write insert into the object's set.
func (c *Cache) Set(key, value []byte) error {
	if len(key)+len(value) > setblock.MaxObjectBytes(c.tier.pageSize) || len(key) > 255 {
		return fmt.Errorf("setcache: object of %d bytes exceeds set size %d", setblock.EntrySize(len(key), len(value)), c.tier.pageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := hashing.Fingerprint(key)
	if err := c.tier.Merge(c.tier.SetOf(fp), []setblock.Entry{{FP: fp, Key: key, Value: value}}); err != nil {
		return err
	}
	c.deleted.Lift(key)
	c.stats.Sets++
	c.stats.LogicalBytes += uint64(len(key) + len(value))
	c.stats.FlashBytesWritten += uint64(c.tier.pageSize)
	return nil
}

// Delete implements cachelib.Engine with the delete shadow: no flash write.
func (c *Cache) Delete(key []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deleted.Delete(key, &c.stats)
	return nil
}

// Get reads the object's set page (unless the Bloom filter rules it out).
func (c *Cache) Get(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted.Hides(key, &c.stats) {
		return nil, false
	}
	c.stats.Gets++
	start := c.tier.cfg.Device.Clock().Now()
	fp := hashing.Fingerprint(key)
	return c.tier.Get(c.tier.SetOf(fp), fp, key, start)
}
