// Package logcache implements the log-structured flash cache baseline
// ("Log" in the paper's Figure 12a): objects are appended sequentially into
// zones, an exact in-memory index maps each to its flash location, and
// eviction is FIFO at zone granularity — near-ideal write amplification (the
// paper measures 1.08) for the highest memory overhead (>100 bits per object
// for the exact index, §2.3). Log is hlog's front tier with no back tier:
// the Front's per-set lists keyed by fingerprint are the exact index, and a
// full log evicts its oldest zone where KG and FW migrate it.
package logcache

import (
	"fmt"
	"sync"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/hashing"
	"nemo/internal/hlog"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Config configures the log cache: it uses Device's zones [ZoneBase,
// ZoneBase+Zones), Zones 0 meaning all of them from ZoneBase.
type Config struct {
	Device   device.Device
	ZoneBase int
	Zones    int
}

// Cache is the log-structured engine, safe for concurrent use. Delete is
// native; the batch and deferred-write calls are cachelib.PerKey's loops.
type Cache struct {
	cachelib.PerKey
	cfg Config

	mu    sync.Mutex // covers log, stats and hist
	log   *hlog.Front
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
	c := &Cache{cfg: cfg}
	c.PerKey = cachelib.PerKeyOver(c)
	var err error
	if c.log, err = hlog.NewFront(cfg.Device, cfg.ZoneBase, cfg.Zones, &c.stats, &c.hist); err != nil {
		return nil, fmt.Errorf("logcache: %w", err)
	}
	return c, nil
}

var _ cachelib.Engine = (*Cache)(nil)

// setOf keys the Front's index by fingerprint: one list per key.
func setOf(fp uint64) int32 { return int32(fp) }

// Name and Close implement cachelib.Engine.
func (c *Cache) Name() string { return "Log" }
func (c *Cache) Close() error { return nil }

// ReadLatency is the engine's histogram of per-GET virtual latencies.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// Stats implements cachelib.Engine; every byte written is a log page.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.FlashBytesWritten = c.log.Stats().PagesWritten * uint64(c.cfg.Device.PageSize())
	s.DeviceBytesWritten = s.FlashBytesWritten
	return s
}

// MemoryBitsPerObject returns the modeled index cost of the log design per
// §2.3: a 29-bit flash offset, 29-bit tag, and 64-bit next pointer.
func (c *Cache) MemoryBitsPerObject() float64 { return 29 + 29 + 64 }

// Set appends and indexes the object, evicting the oldest zone while the log
// is full: Front.Set without migration, whose TakeSet takes newer copies too.
func (c *Cache) Set(key, value []byte) error {
	need := setblock.EntrySize(len(key), len(value))
	if need > c.cfg.Device.PageSize() || len(key) > 255 || len(value) > 65535 {
		return fmt.Errorf("logcache: object of %d bytes exceeds page size %d", need, c.cfg.Device.PageSize())
	}
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	for err := c.log.Append(setOf(fp), fp, key, value); err != nil; err = c.log.Append(setOf(fp), fp, key, value) {
		if err != hlog.ErrFull {
			return err
		}
		dropped, rerr := c.log.ReleaseOldestZone()
		c.stats.Evictions += uint64(dropped)
		if rerr != nil {
			return rerr
		}
	}
	c.stats.Sets++
	c.stats.LogicalBytes += uint64(len(key) + len(value))
	return nil
}

// Delete implements cachelib.Engine natively: an index removal, leaving the
// log entry dead space for FIFO eviction to reclaim, like an overwrite.
func (c *Cache) Delete(key []byte) error {
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Deletes++
	c.log.Remove(setOf(fp), fp)
	return nil
}

// Get looks the object up in the exact index and reads its log page.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	fp := hashing.Fingerprint(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Get(setOf(fp), fp, key, func(time.Duration) ([]byte, bool) {
		c.hist.Record(time.Microsecond) // no back tier: a miss at the 1 µs floor
		return nil, false
	})
}
