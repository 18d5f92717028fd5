package core

// Focused tests for eviction, cooling, and index-pool recycling edge cases.

import (
	"fmt"
	"testing"
)

func TestCoolingClearsUncachedSets(t *testing.T) {
	c := testCache(t, func(cfg *Config) {
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

// TestHotnessTailRestriction shows the fixed tracked tail: a hit on an SG
// outside the oldest HotTrackTail of the pool records no hotness bit, and a
// hit on the same SG once the FIFO has aged it into that tail does.
func TestHotnessTailRestriction(t *testing.T) {
	c := testCache(t, nil)
	// Fill the pool, so from here on every flush evicts its head and the
	// SGs behind it move one position toward the tail.
	for c.PoolLen() < c.cfg.DataZones {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	k, v := kv(0)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sg := c.pool[len(c.pool)-1]
	if sg.objCount != 1 {
		t.Fatalf("the newest SG holds %d objects, want the key alone", sg.objCount)
	}
	pos := func() int { return int(sg.id - c.pool[0].id) }
	read := func(want bool) {
		t.Helper()
		if _, hit := c.Get(k); !hit {
			t.Fatalf("miss at pool position %d", pos())
		}
		if sg.hasBits != want {
			t.Fatalf("hit at pool position %d of %d (tail %d): hotness recorded %v, want %v",
				pos(), len(c.pool), c.hotTail(), sg.hasBits, want)
		}
	}
	if pos() < c.hotTail() {
		t.Fatalf("the newest SG is already in the %d-SG tail", c.hotTail())
	}
	read(false)
	for pos() >= c.hotTail() {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	read(true)
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
