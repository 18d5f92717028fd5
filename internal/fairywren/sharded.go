package fairywren

import "nemo/internal/cachelib"

// NewSharded partitions cfg's zone range into shards independent FairyWREN
// engines behind one cachelib.ShardedEngine (cachelib.NewShardedRange holds
// the contract). The log/set split (LogRatio) and the GC reserve (OPRatio)
// apply within each shard.
func NewSharded(cfg Config, shards int) (*cachelib.ShardedEngine, error) {
	return cachelib.NewShardedRange("fairywren", cfg.Device, cfg.ZoneBase, cfg.Zones, shards,
		func(zoneBase, zones int) (cachelib.Engine, error) {
			cfg.ZoneBase, cfg.Zones = zoneBase, zones
			return New(cfg)
		})
}
