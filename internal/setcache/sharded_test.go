package setcache_test

import (
	"fmt"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/enginetest"
	"nemo/internal/flashsim"
	"nemo/internal/setcache"
)

func newDev() *flashsim.Device {
	return flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
}

func mkBare(t *testing.T) cachelib.Engine {
	t.Helper()
	e, err := setcache.New(setcache.Config{Device: newDev(), OPRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mkSharded(t *testing.T, shards int) cachelib.Engine {
	t.Helper()
	e, err := setcache.NewSharded(setcache.Config{Device: newDev(), OPRatio: 0.5}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedSingleShardEquivalence pins the facade contract: a shards=1
// wrapped set cache replays stat-for-stat like the bare engine.
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
	if _, err := setcache.NewSharded(setcache.Config{Device: newDev()}, 5); err == nil {
		t.Fatal("NewSharded accepted 16 zones across 5 shards")
	}
}

// TestGoldenStats pins the set cache's replay statistics and FTL write
// amplification to the values recorded before the set tier was shared.
// Re-recorded once since, when internal/bloom moved its probe positions to
// enhanced double hashing: only flash_bytes_read, flash_read_ops and lat
// moved (false-positive set reads); hits, writes and evictions did not.
func TestGoldenStats(t *testing.T) {
	enginetest.GoldenStats(t, 60_000, goldenStats, mkBare, mkSharded, func(e cachelib.Engine) string {
		return fmt.Sprintf("dlwa=%.6f", e.(*setcache.Cache).DLWA())
	})
}

var goldenStats = map[string]string{
	"bare/unbatched":     "gets=52922 hits=40159 sets=18634 deletes=1207 logical_bytes=1581349 flash_bytes_written=9540608 device_bytes_written=13488128 flash_bytes_read=30070784 flash_read_ops=58732 evictions=13353 lat=51916/543.4665ms/7.191966s dlwa=1.413760",
	"sharded2/unbatched": "gets=52922 hits=40138 sets=18655 deletes=1207 logical_bytes=1584663 flash_bytes_written=9551360 device_bytes_written=18697216 flash_bytes_read=30071296 flash_read_ops=58733 evictions=13395",
}
