package core

// Tests for §6 device compatibility: SGs spanning multiple small zones
// (e.g. Samsung PM1731a-style 96 MB zones) and operation under a realistic
// open-zone limit.

import (
	"testing"

	"nemo/internal/flashsim"
)

func multiZoneCache(t *testing.T, zonesPerSG int, maxOpen int) (*flashsim.Device, *Cache) {
	t.Helper()
	dev := flashsim.New(flashsim.Config{
		PageSize: 512, PagesPerZone: 8, Zones: 40, MaxOpenZones: maxOpen,
	})
	cfg := DefaultConfig(dev, 16)
	cfg.ZonesPerSG = zonesPerSG
	cfg.SGsPerIndexGroup = 4
	cfg.TargetObjsPerSet = 8
	cfg.FlushThreshold = 8
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, c
}

func TestMultiZoneSGBasic(t *testing.T) {
	_, c := multiZoneCache(t, 4, 0)
	if got := c.setsPerSG; got != 32 {
		t.Fatalf("setsPerSG = %d, want 4 zones × 8 pages", got)
	}
	for i := 0; i < 2000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if c.Extra().SGsFlushed == 0 {
		t.Fatal("no SGs flushed")
	}
	// Recent keys must be readable across the multi-zone layout.
	found := 0
	for i := 1500; i < 2000; i++ {
		k, _ := kv(i)
		if _, hit := c.Get(k); hit {
			found++
		}
	}
	if found < 300 {
		t.Fatalf("only %d/500 recent keys found", found)
	}
}

func TestMultiZoneSGEvictionRecyclesAllZones(t *testing.T) {
	dev, c := multiZoneCache(t, 4, 0)
	for i := 0; i < 30000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().ZoneResets == 0 {
		t.Fatal("no zone resets despite churn")
	}
	// Pool capacity is 16 zones / 4 per SG = 4 SGs.
	if got := c.PoolLen(); got > 4 {
		t.Fatalf("pool holds %d SGs, capacity 4", got)
	}
}

func TestMultiZoneValuesIntact(t *testing.T) {
	_, c := multiZoneCache(t, 2, 0)
	for i := 0; i < 5000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if got, hit := c.Get(k); !hit || string(got) != string(v) {
				t.Fatalf("readback of fresh key %d failed", i)
			}
		}
	}
}

func TestOpenZoneLimitRespected(t *testing.T) {
	// Nemo keeps at most one open data zone plus one open index zone per
	// in-flight group; a ZN540-like limit of 14 must never trip.
	_, c := multiZoneCache(t, 1, 14)
	for i := 0; i < 20000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestInvalidZonesPerSG(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 40})
	cfg := DefaultConfig(dev, 16)
	cfg.ZonesPerSG = 3 // 16 % 3 != 0
	if _, err := newBare(cfg); err == nil {
		t.Fatal("non-divisible ZonesPerSG accepted")
	}
	cfg.ZonesPerSG = 0
	if _, err := newBare(cfg); err == nil {
		t.Fatal("zero ZonesPerSG accepted")
	}
	cfg = DefaultConfig(dev, 16)
	cfg.ZonesPerSG = 16 // only one SG would fit
	if _, err := newBare(cfg); err == nil {
		t.Fatal("single-SG pool accepted")
	}
}

func TestMultiZoneMatchesSingleZoneSemantics(t *testing.T) {
	// The same workload against ZonesPerSG 1 (16 sets/SG via 2 pools) and
	// ZonesPerSG 2 must agree on every lookup outcome value-wise for keys
	// that hit in both.
	_, c1 := multiZoneCache(t, 1, 0)
	_, c2 := multiZoneCache(t, 2, 0)
	for i := 0; i < 3000; i++ {
		k, v := kv(i)
		if err := c1.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if err := c2.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		k, v := kv(i)
		if got, hit := c1.Get(k); hit && string(got) != string(v) {
			t.Fatalf("single-zone cache corrupt at %d", i)
		}
		if got, hit := c2.Get(k); hit && string(got) != string(v) {
			t.Fatalf("multi-zone cache corrupt at %d", i)
		}
	}
}
