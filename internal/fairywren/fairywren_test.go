package fairywren

import (
	"fmt"
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/trace"
)

func mkCache(t *testing.T, mutate func(*Config)) *Cache {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 32})
	cfg := Config{Device: dev, LogRatio: 0.1, OPRatio: 0.1, TargetObjsPerSet: 8}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kv(i int) (k, v []byte) {
	return []byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("val-%08d-xxxxxxxxxxxxxxxx", i))
}

func TestSetGetThroughLog(t *testing.T) {
	c := mkCache(t, nil)
	for i := 0; i < 50; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k, v := kv(i)
		got, hit := c.Get(k)
		if !hit || string(got) != string(v) {
			t.Fatalf("object %d missing", i)
		}
	}
}

func TestPassiveMigrationOnLogFull(t *testing.T) {
	c := mkCache(t, nil)
	for i := 0; i < 6000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	mig := c.Migration()
	if mig.PassiveRMW == 0 {
		t.Fatal("log cycled but no passive migration")
	}
	if mig.PassiveCDF.Total() == 0 {
		t.Fatal("passive CDF empty")
	}
	found := 0
	for i := 5500; i < 6000; i++ {
		k, _ := kv(i)
		if _, hit := c.Get(k); hit {
			found++
		}
	}
	if found < 400 {
		t.Fatalf("only %d/500 recent objects locatable", found)
	}
}

func TestActiveMigrationWhenSpaceTightens(t *testing.T) {
	// Active migration needs a set space much larger than one log-zone
	// burst (otherwise every zone fully invalidates before reclaim), so
	// this test uses a larger device than the other tests.
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 128})
	c, err := New(Config{Device: dev, LogRatio: 0.04, OPRatio: 0.05, TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if c.Migration().ActiveRMW > 50 {
			break
		}
	}
	mig := c.Migration()
	if mig.GCRuns == 0 || mig.ActiveRMW == 0 {
		t.Fatalf("no active migration happened: %+v", mig)
	}
	p := mig.PassiveFraction()
	if p <= 0 || p >= 1 {
		t.Fatalf("passive fraction %v should be strictly between 0 and 1 at steady state", p)
	}
}

func TestActiveBatchesSmallerThanPassive(t *testing.T) {
	// Observation 3: actively migrated objects have roughly half the log
	// residency, so active batches are smaller than passive ones.
	c := mkCache(t, nil)
	s := trace.NewSyntheticInserts(16, 40, 0, 7)
	var req trace.Request
	for i := 0; i < 60000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	mig := c.Migration()
	if mig.ActiveCDF.Total() < 50 || mig.PassiveCDF.Total() < 50 {
		t.Skipf("not enough migrations to compare: %d passive, %d active",
			mig.PassiveCDF.Total(), mig.ActiveCDF.Total())
	}
	if mig.ActiveCDF.Mean() >= mig.PassiveCDF.Mean() {
		t.Fatalf("active mean batch %v should be below passive %v",
			mig.ActiveCDF.Mean(), mig.PassiveCDF.Mean())
	}
}

func TestHashRangeIsHalved(t *testing.T) {
	c := mkCache(t, nil)
	usable := int(float64(c.setZones*c.ppz) * (1 - c.cfg.OPRatio))
	if c.NumSets() != usable/2 {
		t.Fatalf("hash range %d, want half of %d usable pages", c.NumSets(), usable)
	}
}

func TestWASubstantialForTinyObjects(t *testing.T) {
	c := mkCache(t, nil)
	s := trace.NewSyntheticInserts(16, 40, 10, 3)
	var req trace.Request
	for i := 0; i < 30000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ALWA() < 2 {
		t.Fatalf("FW ALWA = %v, the paper's whole point is that it is high", st.ALWA())
	}
	if st.DeviceBytesWritten != st.FlashBytesWritten {
		t.Fatal("FW integrates DLWA into ALWA; the counters must match")
	}
}

func TestHotObjectsSurviveViaOverflow(t *testing.T) {
	c := mkCache(t, func(cfg *Config) { cfg.SpillMinBytes = 1 })
	// A hot working set accessed constantly while filler churns the cache.
	const hotKeys = 10
	for i := 0; i < 40000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		hk, hv := kv(1000000 + i%hotKeys)
		if _, hit := c.Get(hk); !hit {
			if err := c.Set(hk, hv); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Migration().OverflowWrites == 0 {
		t.Skip("no overflow writes triggered at this scale")
	}
}

func TestResetMigrationCDFs(t *testing.T) {
	c := mkCache(t, nil)
	for i := 0; i < 6000; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	if c.Migration().PassiveCDF.Total() == 0 {
		t.Fatal("precondition: CDF should have data")
	}
	c.ResetMigrationCDFs()
	if c.Migration().PassiveCDF.Total() != 0 {
		t.Fatal("reset did not clear CDFs")
	}
}

func TestMemoryModelNearPaper(t *testing.T) {
	c := mkCache(t, nil)
	bits := c.MemoryBitsPerObject()
	if bits < 6 || bits > 14 {
		t.Fatalf("FW modeled at %v bits/obj, Table 6 says ≈9.9", bits)
	}
}

func TestUpdateShadowing(t *testing.T) {
	c := mkCache(t, nil)
	k, _ := kv(42)
	c.Set(k, []byte("version-one-aaaaaaaaaaaa"))
	// Push the object through migration, then update.
	for i := 0; i < 6000; i++ {
		fk, fv := kv(100000 + i)
		c.Set(fk, fv)
	}
	c.Set(k, []byte("version-two-bbbbbbbbbbbb"))
	got, hit := c.Get(k)
	if !hit || string(got) != "version-two-bbbbbbbbbbbb" {
		t.Fatalf("got %q hit=%v", got, hit)
	}
}

func TestDeviceTooSmall(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 4})
	if _, err := New(Config{Device: dev}); err == nil {
		t.Fatal("tiny device accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil device accepted")
	}
}
