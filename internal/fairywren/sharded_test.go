package fairywren_test

import (
	"fmt"
	"strings"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/enginetest"
	"nemo/internal/fairywren"
	"nemo/internal/flashsim"
)

// newDev builds the test device. FairyWREN needs more zones than the other
// baselines before its set-tier GC has workable headroom (the existing
// engine tests use 32-zone devices for the same reason).
func newDev() *flashsim.Device {
	return flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 32})
}

func mkBare(t *testing.T) cachelib.Engine {
	t.Helper()
	e, err := fairywren.New(fairywren.Config{Device: newDev(), TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mkSharded(t *testing.T, shards int) cachelib.Engine {
	t.Helper()
	// 32 zones per shard: below that FairyWREN's set-tier GC has no
	// workable headroom at test scale (see newDev).
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 32 * shards})
	e, err := fairywren.NewSharded(fairywren.Config{Device: dev, TargetObjsPerSet: 8}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedSingleShardEquivalence pins the facade contract: a shards=1
// wrapped FairyWREN replays stat-for-stat like the bare engine.
func TestShardedSingleShardEquivalence(t *testing.T) {
	enginetest.SingleShardEquivalence(t, 20_000, mkBare, mkSharded)
}

// TestShardedPartition checks multi-shard aggregate accounting. Each shard
// runs its own HLog, set tier, and migration/GC over a disjoint zone range.
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

// TestShardedRejectsTinyShards pins the per-shard minimum: partitioning 32
// zones into 8 shards leaves 4 zones per shard — not enough for an HLog
// plus a set tier.
func TestShardedRejectsTinyShards(t *testing.T) {
	if _, err := fairywren.NewSharded(fairywren.Config{Device: newDev()}, 8); err == nil {
		t.Fatal("NewSharded accepted 4-zone shards")
	}
}

// TestGCProgressGuard pins the folded-GC livelock guard: a set tier with no
// workable headroom (16 zones at this page size runs nearly 100% live) must
// fail loudly instead of spinning forever — either the bounded GC pass
// reports no progress, or the relocations it forces exhaust the set zones.
// Before the guard this exact configuration hung the replay.
func TestGCProgressGuard(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
	c, err := fairywren.New(fairywren.Config{Device: dev, TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = cachelib.ParallelReplay(c, enginetest.MixedTrace(40_000), cachelib.ParallelReplayConfig{})
	if err == nil {
		t.Fatal("undersized set tier replayed cleanly — geometry assumption stale")
	}
	if !strings.Contains(err.Error(), "gc made no progress") &&
		!strings.Contains(err.Error(), "out of set zones") {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestGoldenStats pins FairyWREN's replay statistics and migration counters
// to the values recorded before the log front was shared.
// Re-recorded once since, when internal/bloom moved its probe positions to
// enhanced double hashing: only flash_bytes_read, flash_read_ops and lat
// moved (false-positive set reads); hits, writes and evictions did not.
func TestGoldenStats(t *testing.T) {
	enginetest.GoldenStats(t, 20_000, goldenStats, mkBare, mkSharded, func(e cachelib.Engine) string {
		m := e.(*fairywren.Cache).Migration()
		return fmt.Sprintf("passiveRMW=%d activeRMW=%d overflow=%d reloc=%d gc=%d passive=%d/%.6f active=%d/%.6f",
			m.PassiveRMW, m.ActiveRMW, m.OverflowWrites, m.Relocations, m.GCRuns,
			m.PassiveCDF.Total(), m.PassiveCDF.Mean(), m.ActiveCDF.Total(), m.ActiveCDF.Mean())
	})
}

var goldenStats = map[string]string{
	"bare/unbatched":     "gets=17592 hits=14370 sets=5202 deletes=428 logical_bytes=440447 flash_bytes_written=3594240 device_bytes_written=3594240 flash_bytes_read=9705472 flash_read_ops=18956 evictions=2505 lat=17248/131.245692ms/1.899626s passiveRMW=2349 activeRMW=1651 overflow=301 reloc=1645 gc=246 passive=2349/1.505747 active=1651/0.411266",
	"sharded2/unbatched": "gets=17592 hits=15032 sets=4540 deletes=428 logical_bytes=384876 flash_bytes_written=1975808 device_bytes_written=1975808 flash_bytes_read=7666176 flash_read_ops=14973 evictions=1231",
	"bare/batched":       "gets=17592 hits=14394 sets=5178 deletes=428 logical_bytes=437669 flash_bytes_written=3356672 device_bytes_written=3356672 flash_bytes_read=9444864 flash_read_ops=18447 evictions=2508 lat=17248/127.498108ms/1.775951s passiveRMW=2408 activeRMW=1394 overflow=287 reloc=1399 gc=249 passive=2408/1.499585 active=1394/0.409613",
	"sharded2/batched":   "gets=17592 hits=15037 sets=4535 deletes=428 logical_bytes=384857 flash_bytes_written=1988096 device_bytes_written=1988096 flash_bytes_read=7760896 flash_read_ops=15158 evictions=1220",
}
