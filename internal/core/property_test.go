package core

// Model-based property tests: Nemo is driven by random operation sequences
// against a reference model. A cache may evict (Get misses are allowed),
// and — per the documented consistency model — an overwrite whose newest
// copy was sacrificed may expose the previous value. What must NEVER happen
// is a hit returning corrupt or cross-key data, or a value that was never
// Set for that key. The model therefore tracks the full value history per
// key.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nemo/internal/flashsim"
)

// TestPropertyNeverStale replays each seed's history twice: with delayed
// flushing (technique P) off, where FIFO eviction always takes an older copy
// before a newer one and writeback never resurrects a shadowed copy, so no
// hit may be stale; and with it on, where sacrifice can drop the newest
// copy, so stale hits are legal but must stay the exception.
func TestPropertyNeverStale(t *testing.T) {
	history := func(seed int64, delayed bool) (staleHits, exactHits int) {
		rng := rand.New(rand.NewSource(seed))
		dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 14})
		cfg := DefaultConfig(dev, 8)
		cfg.SGsPerIndexGroup = 3
		cfg.FlushThreshold = 4
		cfg.DelayedFlush = delayed
		c, err := newBare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		written := map[string]map[string]bool{}
		latest := map[string]string{}
		keys := 150
		for op := 0; op < 4000; op++ {
			k := []byte(fmt.Sprintf("pk-%04d-pad", rng.Intn(keys)))
			if rng.Intn(3) == 0 {
				v := []byte(fmt.Sprintf("val-%d-%d-padpadpadpad", op, rng.Int63()))
				if err := c.Set(k, v); err != nil {
					t.Fatalf("set: %v", err)
				}
				if written[string(k)] == nil {
					written[string(k)] = map[string]bool{}
				}
				written[string(k)][string(v)] = true
				latest[string(k)] = string(v)
			} else {
				got, hit := c.Get(k)
				if !hit {
					continue // eviction is legal
				}
				hist := written[string(k)]
				if hist == nil {
					t.Fatalf("hit for never-set key %q", k)
				}
				if !hist[string(got)] {
					t.Fatalf("corrupt value for %q: %q was never written", k, got)
				}
				if string(got) == latest[string(k)] {
					exactHits++
				} else {
					staleHits++
				}
			}
		}
		return staleHits, exactHits
	}
	f := func(seed int64) bool {
		if stale, exact := history(seed, false); stale != 0 || exact == 0 {
			t.Fatalf("seed %d without sacrifice: %d stale and %d exact hits, want no stale hit", seed, stale, exact)
		}
		// Staleness is legal but must be the exception, not the rule.
		stale, exact := history(seed, true)
		if exact == 0 || stale > exact {
			t.Fatalf("seed %d with sacrifice: freshness degenerate: %d exact vs %d stale hits", seed, exact, stale)
		}
		t.Logf("seed %d with sacrifice: %d stale, %d exact hits", seed, stale, exact)
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWAInvariant: across random configurations, flash data bytes
// written equal SGsFlushed × SG size, and PaperWA ≥ 1.
func TestPropertyWAInvariant(t *testing.T) {
	f := func(seed int64, pthRaw uint8, buffered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 14})
		cfg := DefaultConfig(dev, 8)
		cfg.SGsPerIndexGroup = 3
		cfg.FlushThreshold = int(pthRaw)%64 + 1
		cfg.BufferedSGs = buffered
		c, err := newBare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 3000; op++ {
			k := []byte(fmt.Sprintf("wa-%05d-pad", rng.Intn(1000)))
			v := make([]byte, 20+rng.Intn(60))
			if err := c.Set(k, v); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		ex := c.Readout().NemoStats
		sgBytes := uint64(dev.PagesPerZone() * dev.PageSize())
		if ex.DataBytesWritten != ex.SGsFlushed*sgBytes {
			t.Fatalf("data bytes %d != %d SGs × %d", ex.DataBytesWritten, ex.SGsFlushed, sgBytes)
		}
		// Update coalescing in memory and sacrificed bytes can push the
		// ratio below 1 at toy scale, but it must stay positive and finite.
		if wa := c.Readout().PaperWA(); ex.SGsFlushed > 0 && (wa <= 0 || wa > 1000) {
			t.Fatalf("WA %v implausible", wa)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPoolBounded: the SG pool never exceeds its configured zone
// budget no matter the operation mix.
func TestPropertyPoolBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 12})
		cfg := DefaultConfig(dev, 6)
		cfg.SGsPerIndexGroup = 2
		c, err := newBare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 5000; op++ {
			k := []byte(fmt.Sprintf("pb-%06d-pad", rng.Intn(3000)))
			v := make([]byte, 30+rng.Intn(40))
			if err := c.Set(k, v); err != nil {
				t.Fatalf("set: %v", err)
			}
			if rng.Intn(4) == 0 {
				c.Get(k)
			}
			if got := c.PoolLen(); got > 6 {
				t.Fatalf("pool %d exceeds 6 zones", got)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
