package core

// Tests for §6 device compatibility: operation under a realistic open-zone
// limit, and the smallest SG pool a shard accepts. An SG is one zone, so a
// small-zone device gets small SGs (Example_deviceCompat; abl-sgsize
// studies the SG size).

import (
	"testing"

	"nemo/internal/flashsim"
)

func zoneLimitCache(t *testing.T, maxOpen int) *Cache {
	t.Helper()
	dev := flashsim.New(flashsim.Config{
		PageSize: 512, PagesPerZone: 8, Zones: 40, MaxOpenZones: maxOpen,
	})
	cfg := DefaultConfig(dev, 16)
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 8
	c, err := newBare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenZoneLimitRespected(t *testing.T) {
	// Nemo keeps at most one open data zone plus one open index zone per
	// in-flight group; a ZN540-like limit of 14 must never trip.
	c := zoneLimitCache(t, 14)
	for i := 0; i < 20000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// TestSingleSGPoolRefused: a pool of one data zone holds one SG, and FIFO
// eviction needs two.
func TestSingleSGPoolRefused(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 40})
	if _, err := newBare(DefaultConfig(dev, 1)); err == nil {
		t.Fatal("single-SG pool accepted")
	}
}
