package setcache

import (
	"fmt"
	"testing"

	"nemo/internal/flashsim"
	"nemo/internal/trace"
)

func mkCache(t *testing.T) *Cache {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 8, Zones: 16})
	c, err := New(Config{Device: dev, TargetObjsPerSet: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kv(i int) (k, v []byte) {
	return []byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("val-%08d-xxxxxxxxxxxxxxxx", i))
}

func TestSetGet(t *testing.T) {
	c := mkCache(t)
	for i := 0; i < 100; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k, v := kv(i)
		got, hit := c.Get(k)
		if !hit || string(got) != string(v) {
			t.Fatalf("object %d: hit=%v", i, hit)
		}
	}
}

func TestUpdate(t *testing.T) {
	c := mkCache(t)
	k, _ := kv(1)
	c.Set(k, []byte("v1-00000000"))
	c.Set(k, []byte("v2-11111111"))
	got, hit := c.Get(k)
	if !hit || string(got) != "v2-11111111" {
		t.Fatalf("got %q", got)
	}
}

func TestHighWAForTinyObjects(t *testing.T) {
	c := mkCache(t)
	s := trace.NewSyntheticInserts(16, 40, 10, 3)
	var req trace.Request
	for i := 0; i < 3000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	wa := c.Stats().ALWA()
	// Each tiny insert rewrites a whole 512 B page: WA ≈ page/object ≈ 7-8.
	if wa < 4 {
		t.Fatalf("set cache ALWA = %v, should be several× for tiny objects", wa)
	}
}

func TestWithinSetEviction(t *testing.T) {
	c := mkCache(t)
	// Hammer a tiny key space so sets overflow.
	for i := 0; i < 2000; i++ {
		k, v := kv(i % 300)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no within-set evictions despite overflow")
	}
}

func TestGCProducesDLWA(t *testing.T) {
	c := mkCache(t)
	s := trace.NewSyntheticInserts(16, 40, 10, 9)
	var req trace.Request
	for i := 0; i < 4000; i++ {
		s.Next(&req)
		if err := c.Set(req.Key, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	if c.DLWA() <= 1.0 {
		t.Fatalf("DLWA = %v, want > 1 under sustained random set RMWs", c.DLWA())
	}
	st := c.Stats()
	if st.DeviceBytesWritten <= st.FlashBytesWritten {
		t.Fatal("device writes should exceed host writes when GC runs")
	}
}

func TestBloomSkipsFlashOnMiss(t *testing.T) {
	c := mkCache(t)
	k, v := kv(1)
	c.Set(k, v)
	before := c.Stats().FlashReadOps
	for i := 10000; i < 10100; i++ {
		mk, _ := kv(i)
		c.Get(mk)
	}
	after := c.Stats().FlashReadOps
	// Without filters every miss would read a page; with 4 b/obj filters
	// nearly all 100 misses should skip flash.
	if after-before > 30 {
		t.Fatalf("%d flash reads for 100 misses; Bloom filters ineffective", after-before)
	}
}

func TestRejectOversized(t *testing.T) {
	c := mkCache(t)
	if err := c.Set([]byte("key-big"), make([]byte, 1024)); err == nil {
		t.Fatal("oversized object accepted")
	}
}
