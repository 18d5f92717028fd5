package setcache

import "nemo/internal/cachelib"

// NewSharded partitions cfg's zone range into shards independent set
// caches, each with its own FTL, behind one cachelib.ShardedEngine
// (cachelib.NewShardedRange holds the contract).
func NewSharded(cfg Config, shards int) (*cachelib.ShardedEngine, error) {
	return cachelib.NewShardedRange("setcache", cfg.Device, cfg.ZoneBase, cfg.Zones, shards,
		func(zoneBase, zones int) (cachelib.Engine, error) {
			cfg.ZoneBase, cfg.Zones = zoneBase, zones
			return New(cfg)
		})
}
