package kangaroo

import (
	"fmt"
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/trace"
)

func mkCache(t *testing.T) *Cache {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 32})
	c, err := New(Config{Device: dev, TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kv(i int) (k, v []byte) {
	return []byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("val-%08d-xxxxxxxxxxxxxxxx", i))
}

func TestSetGetThroughLog(t *testing.T) {
	c := mkCache(t)
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
			t.Fatalf("object %d missing from log tier", i)
		}
	}
}

func TestMigrationToHSet(t *testing.T) {
	c := mkCache(t)
	// Insert enough to fill and cycle the log several times.
	n := 8000
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	mig := c.Migration()
	if mig.SetWrites == 0 {
		t.Fatal("log filled but no set writes happened")
	}
	if mig.PassiveCDF.Total() == 0 {
		t.Fatal("migration CDF empty")
	}
	// Recently inserted objects should be found (log or set tier).
	found := 0
	for i := n - 500; i < n; i++ {
		k, _ := kv(i)
		if _, hit := c.Get(k); hit {
			found++
		}
	}
	if found < 400 {
		t.Fatalf("only %d/500 recent objects locatable after migration", found)
	}
}

func TestWAExceedsFairShare(t *testing.T) {
	c := mkCache(t)
	s := trace.NewSyntheticInserts(16, 40, 10, 3)
	var req trace.Request
	for i := 0; i < 20000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	// Hierarchical migration of tiny objects amplifies: each set write
	// carries few objects relative to the page size (§3).
	if st.ALWA() < 2 {
		t.Fatalf("Kangaroo ALWA = %v, expected substantial amplification", st.ALWA())
	}
	if st.TotalWA() < st.ALWA() {
		t.Fatal("total WA must include device GC")
	}
}

func TestMeanBatchMatchesTheory(t *testing.T) {
	// Observation 1 / Eq. 5: E(L_i) = (w/s · N_Log) / N_Set for Kangaroo's
	// full hash range. With small sets this is a loose check: the mean
	// migration batch should be within 3× of the theoretical list length.
	c := mkCache(t)
	s := trace.NewSyntheticInserts(16, 40, 0, 3)
	var req trace.Request
	for i := 0; i < 30000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	mig := c.Migration()
	mean := mig.PassiveCDF.Mean()
	objsPerPage := 512.0 / float64(40+16+11)
	theory := objsPerPage * float64(c.log.PageCapacity()) / float64(c.NumSets())
	if mean < theory/3 || mean > theory*3 {
		t.Fatalf("mean batch %v vs theory %v: off by more than 3×", mean, theory)
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
