package kangaroo_test

import (
	"fmt"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/enginetest"
	"nemo/internal/flashsim"
	"nemo/internal/kangaroo"
)

func newDev() *flashsim.Device {
	return flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
}

func mkBare(t *testing.T) cachelib.Engine {
	t.Helper()
	e, err := kangaroo.New(kangaroo.Config{Device: newDev(), TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mkSharded(t *testing.T, shards int) cachelib.Engine {
	t.Helper()
	e, err := kangaroo.NewSharded(kangaroo.Config{Device: newDev(), TargetObjsPerSet: 8}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedSingleShardEquivalence pins the facade contract: a shards=1
// wrapped Kangaroo replays stat-for-stat like the bare engine.
func TestShardedSingleShardEquivalence(t *testing.T) {
	enginetest.SingleShardEquivalence(t, 20_000, mkBare, mkSharded)
}

// TestShardedPartition checks multi-shard aggregate accounting. Each shard
// runs its own HLog and FTL-backed HSet over a disjoint zone range.
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

// TestShardedRejectsTinyShards pins the per-shard minimum: partitioning 16
// zones into 8 shards leaves 2 zones per shard — not enough for an HLog
// plus a set tier.
func TestShardedRejectsTinyShards(t *testing.T) {
	if _, err := kangaroo.NewSharded(kangaroo.Config{Device: newDev()}, 8); err == nil {
		t.Fatal("NewSharded accepted 2-zone shards")
	}
}

// TestGoldenStats pins Kangaroo's replay statistics, migration counters and
// FTL write amplification to the values recorded before the set tier and
// the log front were shared.
// Re-recorded once since, when internal/bloom moved its probe positions to
// enhanced double hashing: only flash_bytes_read, flash_read_ops and lat
// moved (false-positive set reads); hits, writes and evictions did not.
func TestGoldenStats(t *testing.T) {
	enginetest.GoldenStats(t, 60_000, goldenStats, mkBare, mkSharded, func(e cachelib.Engine) string {
		c := e.(*kangaroo.Cache)
		m := c.Migration()
		return fmt.Sprintf("setWrites=%d dropped=%d passive=%d/%.6f dlwa=%.6f",
			m.SetWrites, m.Dropped, m.PassiveCDF.Total(), m.PassiveCDF.Mean(), c.DLWA())
	})
}

var goldenStats = map[string]string{
	"bare/unbatched":     "gets=52922 hits=42107 sets=16686 deletes=1207 logical_bytes=1420450 flash_bytes_written=6130176 device_bytes_written=24834560 flash_bytes_read=23889920 flash_read_ops=46660 evictions=11144 lat=51916/932.071998ms/13.073051s setWrites=8503 dropped=0 passive=8503/1.616371 dlwa=5.296366",
	"sharded2/unbatched": "gets=52922 hits=40170 sets=18623 deletes=1207 logical_bytes=1582103 flash_bytes_written=4417536 device_bytes_written=7304704 flash_bytes_read=19600896 flash_read_ops=38283 evictions=13885",
}
