package core

// Focused tests for eviction, cooling, and index-pool recycling edge cases.

import (
	"fmt"
	"testing"
)

func TestCoolingClearsUncachedSets(t *testing.T) {
	c := testCache(t, func(cfg *Config) {
		cfg.HotTrackTailRatio = 1.0
		cfg.CachedPBFGRatio = 0.0 // nothing cached ⇒ cooling clears everything sealed
		cfg.CoolingWriteRatio = 0.05
	})
	for i := 0; i < 8000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			c.Get(k)
		}
	}
	if c.Readout().CoolingRuns == 0 {
		t.Fatal("cooling never ran")
	}
	// With no PBFG pages resident, the hybrid signal can never fire for
	// sealed groups, so writeback volume must be low (only unsealed-group
	// SGs can qualify).
	ex := c.Readout().NemoStats
	if ex.WriteBackObjs > ex.SGsFlushed*uint64(c.setsPerSG) {
		t.Fatalf("implausible writeback volume %d with cold index cache", ex.WriteBackObjs)
	}
}

func TestHotnessTailRestriction(t *testing.T) {
	// With a zero tail ratio, no hotness is ever recorded and writeback
	// finds nothing hot.
	c := testCache(t, func(cfg *Config) { cfg.HotTrackTailRatio = 0 })
	for i := 0; i < 8000; i++ {
		k, v := kv(i)
		c.Set(k, v)
		hk, hv := kv(1000000 + i%10)
		if _, hit := c.Get(hk); !hit {
			c.Set(hk, hv)
		}
	}
	if got := c.Readout().WriteBackObjs; got != 0 {
		t.Fatalf("%d writebacks with hotness tracking disabled", got)
	}
}

func TestIndexZoneRecycling(t *testing.T) {
	// Cycle the pool enough that each index group dies several times; the
	// index zone pool must never run dry (sealing would fail).
	c := testCache(t, nil)
	for i := 0; i < 30000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	ex := c.Readout().NemoStats
	wantGroups := ex.SGsFlushed / uint64(c.cfg.SGsPerIndexGroup)
	sealed := ex.IndexBytesWritten / uint64(c.setsPerSG*c.pageSize)
	if sealed < wantGroups-1 {
		t.Fatalf("only %d groups sealed for %d flushed SGs", sealed, ex.SGsFlushed)
	}
}

func TestEvictionWithoutWritebackSkipsReads(t *testing.T) {
	run := func(writeback bool) uint64 {
		c := testCache(t, func(cfg *Config) { cfg.Writeback = writeback })
		for i := 0; i < 10000; i++ {
			k, v := kv(i)
			c.Set(k, v)
		}
		return c.Stats().FlashBytesRead
	}
	without := run(false)
	with := run(true)
	if without >= with && with > 0 {
		t.Fatalf("writeback-off should read less flash: %d vs %d", without, with)
	}
}

func TestFlushLogCapped(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 12000; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	log := c.FlushLog()
	if len(log) == 0 {
		t.Fatal("empty flush log")
	}
	if len(log) > maxFlushLog {
		t.Fatalf("flush log grew to %d, cap is %d", len(log), maxFlushLog)
	}
	for i, r := range log {
		if r.Fill < 0 || r.Fill > 1 {
			t.Fatalf("record %d has fill %v", i, r.Fill)
		}
		if r.NewObjs < 0 || r.WBObjs < 0 {
			t.Fatalf("record %d has negative counts", i)
		}
	}
}

func TestPBFGCacheZeroRatio(t *testing.T) {
	// CachedPBFGRatio 0 must still work — every sealed lookup goes to
	// flash.
	c := testCache(t, func(cfg *Config) { cfg.CachedPBFGRatio = 0 })
	for i := 0; i < 6000; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	hits := 0
	for i := 5500; i < 6000; i++ {
		k, _ := kv(i)
		if _, hit := c.Get(k); hit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits with uncached index")
	}
	if r := c.Readout(); r.PBFGLookups > 0 && r.PBFGMisses != r.PBFGLookups {
		t.Fatalf("zero cache should miss every lookup: %d/%d", r.PBFGMisses, r.PBFGLookups)
	}
}

func TestStatsMonotone(t *testing.T) {
	c := testCache(t, nil)
	var prev uint64
	for i := 0; i < 5000; i++ {
		k, v := kv(i)
		c.Set(k, v)
		if i%500 == 0 {
			cur := c.Stats().FlashBytesWritten
			if cur < prev {
				t.Fatalf("flash bytes went backwards at op %d", i)
			}
			prev = cur
		}
	}
}

func TestMemObjectsTracksBuffer(t *testing.T) {
	c := testCache(t, nil)
	if c.MemObjects() != 0 {
		t.Fatal("fresh cache should buffer nothing")
	}
	for i := 0; i < 20; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	if got := c.MemObjects(); got != 20 {
		t.Fatalf("MemObjects = %d, want 20", got)
	}
}

func TestGetOnEmptyPool(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 100; i++ {
		k, _ := kv(i + 500000)
		if _, hit := c.Get(k); hit {
			t.Fatal("hit on empty cache")
		}
	}
}

func TestFmtHelperKeysUnique(t *testing.T) {
	a, _ := kv(1)
	b, _ := kv(2)
	if string(a) == string(b) {
		t.Fatal("test helper generates colliding keys")
	}
	if fmt.Sprintf("%s", a) == "" {
		t.Fatal("empty key")
	}
}
