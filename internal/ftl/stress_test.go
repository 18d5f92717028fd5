package ftl

// Regression tests for GC pathologies: the zone-leak livelock (GC opening a
// relocation zone that the caller then abandoned) only manifested at larger
// zone counts than the unit tests used.

import (
	"math/rand"
	"testing"
	"time"

	"nemo/internal/flashsim"
)

func TestGCSustainedRandomOverwrites(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 4096, PagesPerZone: 32, Zones: 56})
	f, err := New(dev, 0, 56, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < 100000; i++ {
		if _, err := f.Write(rng.Intn(f.LogicalPages()), data); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%10000 == 0 && time.Since(start) > 2*time.Minute {
			t.Fatalf("GC degenerated: only %d ops in %v", i, time.Since(start))
		}
	}
	st := f.Stats()
	if st.DLWA() > 3 {
		t.Fatalf("DLWA %v too high for 50%% OP", st.DLWA())
	}
	if st.GCRuns == 0 {
		t.Fatal("expected GC activity")
	}
}

func TestGCNoZoneLeak(t *testing.T) {
	// After heavy churn, every zone must be accounted for: free, active,
	// or full (GC victims must stay findable).
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 40})
	f, err := New(dev, 0, 40, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 512)
	for i := 0; i < 50000; i++ {
		if _, err := f.Write(rng.Intn(f.LogicalPages()), data); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	partial := 0
	for z := 0; z < 40; z++ {
		wp := dev.ZoneWP(z)
		if wp > 0 && wp < 16 && z != f.active {
			partial++
		}
	}
	if partial > 0 {
		t.Fatalf("%d partially-filled zones leaked (neither free, active, nor full)", partial)
	}
}
