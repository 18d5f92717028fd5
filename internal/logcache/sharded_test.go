package logcache_test

import (
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/enginetest"
	"nemo/internal/flashsim"
	"nemo/internal/logcache"
)

func newDev() *flashsim.Device {
	return flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
}

func mkBare(t *testing.T) cachelib.Engine {
	t.Helper()
	e, err := logcache.New(logcache.Config{Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mkSharded(t *testing.T, shards int) cachelib.Engine {
	t.Helper()
	e, err := logcache.NewSharded(logcache.Config{Device: newDev()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedSingleShardEquivalence pins the facade contract: a shards=1
// wrapped log cache replays stat-for-stat like the bare engine.
func TestShardedSingleShardEquivalence(t *testing.T) {
	enginetest.SingleShardEquivalence(t, 20_000, mkBare, mkSharded)
}

// TestShardedPartition checks multi-shard aggregate accounting.
func TestShardedPartition(t *testing.T) {
	enginetest.MultiShardPartition(t, 20_000, 2, mkSharded)
}

// TestConformance runs the engine-contract table against the bare engine
// and the two-shard facade.
func TestConformance(t *testing.T) {
	t.Run("bare", func(t *testing.T) { enginetest.Conformance(t, mkBare) })
	t.Run("sharded2", func(t *testing.T) {
		enginetest.Conformance(t, func(t *testing.T) cachelib.Engine { return mkSharded(t, 2) })
	})
}

// TestShardedRejectsIndivisible pins the zone-partition validation.
func TestShardedRejectsIndivisible(t *testing.T) {
	if _, err := logcache.NewSharded(logcache.Config{Device: newDev()}, 3); err == nil {
		t.Fatal("NewSharded accepted 16 zones across 3 shards")
	}
}

// TestGoldenStats pins the log cache's replay statistics to recorded values.
func TestGoldenStats(t *testing.T) {
	enginetest.GoldenStats(t, 60_000, goldenStats, mkBare, mkSharded, nil)
}

var goldenStats = map[string]string{
	"bare/unbatched":     "gets=52922 hits=42254 sets=16539 deletes=1207 logical_bytes=1403076 flash_bytes_written=1756160 device_bytes_written=1756160 flash_bytes_read=19634688 flash_read_ops=38349 evictions=10467 lat=52922/161.913508ms/1.173566s",
	"sharded2/unbatched": "gets=52922 hits=42145 sets=16648 deletes=1207 logical_bytes=1412456 flash_bytes_written=1771008 device_bytes_written=1771008 flash_bytes_read=17980928 flash_read_ops=35119 evictions=10594",
	"bare/batched":       "gets=52922 hits=42253 sets=16540 deletes=1207 logical_bytes=1403189 flash_bytes_written=1757696 device_bytes_written=1757696 flash_bytes_read=19614720 flash_read_ops=38310 evictions=10484 lat=52922/159.229392ms/1.162576s",
	"sharded2/batched":   "gets=52922 hits=42176 sets=16617 deletes=1207 logical_bytes=1409723 flash_bytes_written=1767424 device_bytes_written=1767424 flash_bytes_read=18274816 flash_read_ops=35693 evictions=10560",
}
