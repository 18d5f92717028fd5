// Package kangaroo implements the Kangaroo hierarchical baseline ("KG" in
// the paper): an HLog front tier feeding a set-associative HSet back tier
// over a conventional (FTL-backed) SSD.
//
// Log-to-set migration and device garbage collection are independent
// (Case 3.1, §3.1): migration performs read-modify-writes on set pages, and
// the FTL separately relocates valid pages, so the two amplifications
// multiply — which is why the paper measures KG's total WA at 55.6× versus
// FairyWREN's 15.2×.
//
// Composition: HLog is an hlog.Front, HSet is the set cache's own
// setcache.Tier, and this package keeps what is Kangaroo's: the admission
// threshold on migration and the migration instrumentation. Cache owns the
// one mutex, cachelib.Stats and histogram; front and tier are lock-free and
// account into them. cachelib.PerKey's loops and a cachelib.DeleteShadow
// make it a full cachelib.Engine without being part of the design.
package kangaroo

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
	"nemo/internal/setcache"
)

// Config configures the Kangaroo engine. The zero value of every field but
// Device is the paper's Table 4 configuration.
type Config struct {
	Device device.Device
	// ZoneBase is the first device zone the engine owns; Zones is how many
	// (0 means all zones from ZoneBase). A sharded deployment (NewSharded)
	// gives each shard its own disjoint range of one device.
	ZoneBase int
	Zones    int
	// LogRatio is the fraction of zones given to HLog (default 0.05,
	// Table 4's "Log 5% of cache size").
	LogRatio float64
	// OPRatio is the host-visible HSet over-provisioning ratio
	// (default 0.05, Table 4).
	OPRatio float64
	// TargetObjsPerSet sizes the in-memory per-set Bloom filters.
	TargetObjsPerSet int
	// AdmitThreshold drops migration batches smaller than this many
	// objects (Kangaroo's minimum-admission policy; 0 and 1 admit all).
	AdmitThreshold int
}

// internalOPRatio models the conventional SSD's built-in over-provisioning
// on top of the host-visible OP (a typical 7% for enterprise drives).
// Kangaroo runs on a block-interface SSD, so its effective GC headroom is
// the sum of both; FairyWREN's host FTL has no such hidden reserve.
const internalOPRatio = 0.07

// Cache is the Kangaroo engine. Safe for concurrent use.
type Cache struct {
	cachelib.PerKey
	cfg Config

	mu      sync.Mutex // covers log, hset, deleted, stats, mig and hist
	log     *hlog.Front
	hset    *setcache.Tier
	deleted cachelib.DeleteShadow
	stats   cachelib.Stats
	mig     MigrationStats
	hist    metrics.Histogram
}

// MigrationStats instruments log-to-set migration for Figures 4–6.
type MigrationStats struct {
	// PassiveCDF records the number of newly written (log) objects per
	// set write. Kangaroo has only passive migration; device GC handles
	// relocation independently.
	PassiveCDF *metrics.IntCDF
	SetWrites  uint64
	Dropped    uint64 // batches below the admission threshold
}

var _ cachelib.Engine = (*Cache)(nil)

// New creates the engine.
func New(cfg Config) (*Cache, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("kangaroo: nil device")
	}
	if cfg.LogRatio == 0 {
		cfg.LogRatio = 0.05
	}
	if cfg.OPRatio == 0 {
		cfg.OPRatio = 0.05
	}
	logZones, setZones, err := hlog.SplitZones(cfg.Device, cfg.ZoneBase, cfg.Zones, cfg.LogRatio)
	if err != nil {
		return nil, fmt.Errorf("kangaroo: %w", err)
	}
	c := &Cache{
		cfg: cfg,
		mig: MigrationStats{PassiveCDF: metrics.NewIntCDF(10)},
	}
	c.PerKey = cachelib.PerKeyOver(c)
	if c.log, err = hlog.NewFront(cfg.Device, cfg.ZoneBase, logZones, &c.stats, &c.hist); err != nil {
		return nil, err
	}
	c.hset, err = setcache.NewTier(setcache.Config{
		Device:           cfg.Device,
		ZoneBase:         cfg.ZoneBase + logZones,
		Zones:            setZones,
		OPRatio:          cfg.OPRatio + internalOPRatio,
		TargetObjsPerSet: cfg.TargetObjsPerSet,
	}, &c.stats, &c.hist)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements cachelib.Engine.
func (c *Cache) Name() string { return "KG" }

// Close implements cachelib.Engine.
func (c *Cache) Close() error { return nil }

// ReadLatency is the engine's histogram of per-GET virtual latencies.
func (c *Cache) ReadLatency() *metrics.Histogram { return &c.hist }

// NumSets returns the HSet hash range (the full usable page count — twice
// FairyWREN's, since Kangaroo lacks hot/cold division, §5.2).
func (c *Cache) NumSets() int { return c.hset.NumSets() }

// Migration returns a snapshot of migration instrumentation.
func (c *Cache) Migration() MigrationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mig
}

// DLWA returns the HSet FTL's device-level write amplification.
func (c *Cache) DLWA() float64 { return c.hset.FTLStats().DLWA() }

// Stats implements cachelib.Engine; DeviceBytesWritten folds in FTL GC, so
// TotalWA reproduces the paper's ALWA × GC product for Kangaroo.
func (c *Cache) Stats() cachelib.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	fs := c.hset.FTLStats()
	host := fs.HostPagesWritten + c.log.Stats().PagesWritten
	pageSize := uint64(c.cfg.Device.PageSize())
	s.FlashBytesWritten = host * pageSize
	s.DeviceBytesWritten = (host + fs.GCPagesWritten) * pageSize
	return s
}

// MemoryBitsPerObject models the in-memory cost: the HLog index (~48 bits
// per log object amortized over all cached objects, §2.3/Table 6) plus the
// per-set Bloom filters.
func (c *Cache) MemoryBitsPerObject() float64 {
	logShare := c.cfg.LogRatio * 48
	return logShare + setcache.BloomBitsPerObj
}

// Set appends the object to the HLog, migrating the oldest log zone into
// HSet when the log is full.
func (c *Cache) Set(key, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := hashing.Fingerprint(key)
	if err := c.log.Set(int32(c.hset.SetOf(fp)), fp, key, value, c.migrateSet); err != nil {
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

// migrateSet is passive migration's step for one set (Case 2): one
// read-modify-write carrying all log objects mapped to it, unless they are
// too few to be admitted.
func (c *Cache) migrateSet(set int32, objs []setblock.Entry) error {
	if len(objs) < c.cfg.AdmitThreshold {
		c.mig.Dropped++
		c.stats.Evictions += uint64(len(objs))
		return nil
	}
	if err := c.hset.Merge(int(set), objs); err != nil {
		return err
	}
	c.mig.SetWrites++
	c.mig.PassiveCDF.Add(len(objs))
	return nil
}

// Get searches the HLog first, then the HSet set page.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted.Hides(key, &c.stats) {
		return nil, false
	}
	fp := hashing.Fingerprint(key)
	set := c.hset.SetOf(fp)
	return c.log.Get(int32(set), fp, key, func(start time.Duration) ([]byte, bool) {
		return c.hset.Get(set, fp, key, start)
	})
}
