package kangaroo

import "nemo/internal/cachelib"

// NewSharded partitions cfg's zone range into shards independent Kangaroo
// engines behind one cachelib.ShardedEngine (cachelib.NewShardedRange holds
// the contract). The HLog/HSet split (LogRatio) applies within each shard.
func NewSharded(cfg Config, shards int) (*cachelib.ShardedEngine, error) {
	return cachelib.NewShardedRange("kangaroo", cfg.Device, cfg.ZoneBase, cfg.Zones, shards,
		func(zoneBase, zones int) (cachelib.Engine, error) {
			cfg.ZoneBase, cfg.Zones = zoneBase, zones
			return New(cfg)
		})
}
