package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nemo/internal/device"
	"nemo/internal/flashsim"
	"nemo/internal/trace"
)

// testCache builds a small Nemo: 512 B sets, 16 sets/SG, 8-zone pool.
func testCache(t *testing.T, mutate func(*Config)) *Cache {
	t.Helper()
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	return testCacheOn(t, dev, mutate)
}

// testCacheOn is testCache on a caller-supplied device, so fault tests can
// run per backend through devtest.Run.
func testCacheOn(t *testing.T, dev device.Device, mutate func(*Config)) *Cache {
	t.Helper()
	c, err := newBare(testConfig(dev, mutate))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testShardedOn is testCacheOn built through NewSharded — one shard, whose
// facade owns the flusher pool and the snapshot — and closed at cleanup.
func testShardedOn(t *testing.T, dev device.Device, mutate func(*Config)) *Sharded {
	t.Helper()
	s, err := NewSharded(testConfig(dev, mutate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testConfig is testCache's configuration on dev, adjusted by mutate.
func testConfig(dev device.Device, mutate func(*Config)) Config {
	cfg := DefaultConfig(dev, 8)
	cfg.SGsPerIndexGroup = 4
	cfg.FlushThreshold = 8
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// newBare builds one shard on its own, the way NewSharded builds each of its
// shards: the engine most unit tests drive directly.
func newBare(cfg Config) (*Cache, error) { return newShard(cfg, 0, &kitPool{keep: 1}) }

// PoolLen returns the number of live on-flash SGs.
func (c *Cache) PoolLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pool)
}

// MemObjects returns the number of objects currently buffered in memory,
// including the sealed SG of an in-flight flush (its objects are still
// served from memory until the flush commits).
func (c *Cache) MemObjects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, sg := range c.memq {
		n += sg.objCount()
	}
	if c.sealed != nil {
		n += c.sealed.objCount()
	}
	return n
}

func kv(i int) (key, value []byte) {
	key = []byte(fmt.Sprintf("key-%08d", i))
	value = []byte(fmt.Sprintf("value-%08d-%032d", i, i))
	return
}

func TestSetGetInMemory(t *testing.T) {
	c := testCache(t, nil)
	k, v := kv(1)
	if err := c.Set(k, v); err != nil {
		t.Fatal(err)
	}
	got, hit := c.Get(k)
	if !hit || string(got) != string(v) {
		t.Fatalf("get = %q, %v", got, hit)
	}
}

func TestGetMiss(t *testing.T) {
	c := testCache(t, nil)
	if _, hit := c.Get([]byte("absent-key-00001")); hit {
		t.Fatal("unexpected hit on empty cache")
	}
}

func TestFlushedObjectsReadableFromFlash(t *testing.T) {
	c := testCache(t, nil)
	var keys [][]byte
	for i := 0; i < 60; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.PoolLen() == 0 {
		t.Fatal("flush produced no on-flash SG")
	}
	found := 0
	for i, k := range keys {
		_, v := kv(i)
		got, hit := c.Get(k)
		if hit {
			found++
			if string(got) != string(v) {
				t.Fatalf("key %d returned wrong value", i)
			}
		}
	}
	// Sacrifice may drop a few, but the bulk must be readable.
	if found < 50 {
		t.Fatalf("only %d/60 objects readable after flush", found)
	}
}

func TestUpdateReturnsNewestValue(t *testing.T) {
	c := testCache(t, nil)
	k, _ := kv(7)
	for ver := 0; ver < 5; ver++ {
		v := []byte(fmt.Sprintf("version-%d-padding-padding", ver))
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if ver == 2 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		got, hit := c.Get(k)
		if !hit || string(got) != string(v) {
			t.Fatalf("after update %d: got %q hit=%v", ver, got, hit)
		}
	}
}

func TestUpdateShadowsFlashCopy(t *testing.T) {
	c := testCache(t, nil)
	k, _ := kv(9)
	c.Set(k, []byte("old-value-on-flash-xxxxxxxx"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Set(k, []byte("new-value-in-memory-yyyyyy"))
	got, hit := c.Get(k)
	if !hit || string(got) != "new-value-in-memory-yyyyyy" {
		t.Fatalf("stale value returned: %q", got)
	}
	// Flush again: both versions now on flash; newest must win.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, hit = c.Get(k)
	if !hit || string(got) != "new-value-in-memory-yyyyyy" {
		t.Fatalf("stale flash value returned after double flush: %q", got)
	}
}

func TestEvictionRecyclesZones(t *testing.T) {
	c := testCache(t, nil)
	// Push far more data than the 8-zone pool holds.
	for i := 0; i < 5000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.PoolLen(); got > 8 {
		t.Fatalf("pool grew to %d SGs, capacity is 8", got)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	ex := c.Readout().NemoStats
	if ex.SGsFlushed < 8 {
		t.Fatalf("only %d SGs flushed", ex.SGsFlushed)
	}
}

func TestWriteAmplificationReasonable(t *testing.T) {
	c := testCache(t, nil)
	stream := trace.NewZipf(trace.ClusterConfig{
		Name: "t", KeySize: 16, ValueMean: 60, ValueStd: 20,
		Keys: 4000, ZipfAlpha: 1.2, Seed: 3,
	})
	var req trace.Request
	for i := 0; i < 40000; i++ {
		stream.Next(&req)
		if _, hit := c.Get(req.Key); !hit {
			if err := c.Set(req.Key, req.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	wa := c.Readout().PaperWA()
	if wa < 1.0 {
		t.Fatalf("paper WA %v below 1 is impossible", wa)
	}
	if wa > 4.0 {
		t.Fatalf("paper WA %v too high for Nemo (expect near 1/fill)", wa)
	}
	fill := c.Readout().MeanFillRate()
	if fill < 0.3 {
		t.Fatalf("mean fill rate %v too low with all techniques on", fill)
	}
}

func TestNaiveFillRateMuchLower(t *testing.T) {
	run := func(naive bool) float64 {
		c := testCache(t, func(cfg *Config) {
			if naive {
				cfg.BufferedSGs = false
				cfg.DelayedFlush = false
				cfg.Writeback = false
			}
		})
		stream := trace.NewSyntheticInserts(16, 60, 30, 11)
		var req trace.Request
		for i := 0; i < 30000; i++ {
			stream.Next(&req)
			if err := c.Set(req.Key, req.Value); err != nil {
				panic(err)
			}
		}
		return c.Readout().MeanFillRate()
	}
	naive := run(true)
	full := run(false)
	if naive >= full {
		t.Fatalf("naive fill %v should be below full-technique fill %v", naive, full)
	}
	if full < 2*naive {
		t.Fatalf("techniques should at least double fill rate: naive=%v full=%v", naive, full)
	}
}

func TestMissRatioBetterThanNoCache(t *testing.T) {
	c := testCache(t, nil)
	stream := trace.NewZipf(trace.ClusterConfig{
		Name: "t", KeySize: 16, ValueMean: 60, ValueStd: 0,
		Keys: 2000, ZipfAlpha: 1.25, Seed: 5,
	})
	var req trace.Request
	for i := 0; i < 30000; i++ {
		stream.Next(&req)
		if _, hit := c.Get(req.Key); !hit {
			c.Set(req.Key, req.Value)
		}
	}
	st := c.Stats()
	if st.MissRatio() > 0.6 {
		t.Fatalf("miss ratio %v too high for zipf 1.25 with working set ≈ cache", st.MissRatio())
	}
}

func TestPBFGStatsPopulated(t *testing.T) {
	c := testCache(t, func(cfg *Config) { cfg.CachedPBFGRatio = 0.1 })
	stream := trace.NewZipf(trace.ClusterConfig{
		Name: "t", KeySize: 16, ValueMean: 60, ValueStd: 0,
		Keys: 5000, ZipfAlpha: 1.2, Seed: 6,
	})
	var req trace.Request
	for i := 0; i < 30000; i++ {
		stream.Next(&req)
		if _, hit := c.Get(req.Key); !hit {
			c.Set(req.Key, req.Value)
		}
	}
	r := c.Readout()
	lookups, misses, ratio := r.PBFGLookups, r.PBFGMisses, r.PBFGMissRatio()
	if lookups == 0 {
		t.Fatal("no PBFG lookups recorded")
	}
	if misses == 0 {
		t.Fatal("with a 10% cache some PBFG fetches must come from flash")
	}
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("pbfg miss ratio %v out of (0,1)", ratio)
	}
}

func TestIndexSealingAndReuse(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 8000; i++ {
		k, v := kv(i)
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	ex := c.Readout().NemoStats
	if ex.IndexBytesWritten == 0 {
		t.Fatal("index groups never sealed to flash")
	}
	// Pool cycled several times: dead groups must have freed their zones
	// (otherwise sealing would have failed above).
}

func TestWritebackKeepsHotObjects(t *testing.T) {
	c := testCache(t, nil)
	// A small hot set accessed constantly (demand-filled on miss, as a real
	// cache workload would) while filler churns the pool.
	const hotKeys = 20
	for i := 0; i < 8000; i++ {
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
	ex := c.Readout().NemoStats
	if ex.WriteBackObjs == 0 {
		t.Fatal("no objects were written back despite repeated access")
	}
	// The hot set must be mostly retained.
	retained := 0
	for i := 0; i < hotKeys; i++ {
		hk, _ := kv(1000000 + i)
		if _, hit := c.Get(hk); hit {
			retained++
		}
	}
	if retained < hotKeys/2 {
		t.Fatalf("only %d/%d hot keys retained", retained, hotKeys)
	}
}

func TestWritebackDisabledDropsAll(t *testing.T) {
	c := testCache(t, func(cfg *Config) { cfg.Writeback = false })
	for i := 0; i < 6000; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	if ex := c.Readout().NemoStats; ex.WriteBackObjs != 0 {
		t.Fatalf("writeback disabled but %d objects written back", ex.WriteBackObjs)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: 16})
	// Each row names the check that must reject it, so a row caught by an
	// earlier check does not pass for the wrong reason.
	bad := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Device = nil }, "nil device"},
		{func(c *Config) { c.DataZones = 1 }, "DataZones 1 must hold at least 2 SGs"},
		{func(c *Config) { c.DataZones = 100 }, "need zones"},
		{func(c *Config) { c.FlushThreshold = 0 }, "FlushThreshold"},
		{func(c *Config) { c.BloomFPR = 0 }, "BloomFPR"},
		{func(c *Config) { c.BloomFPR = 1.5 }, "BloomFPR"},
		{func(c *Config) { c.CachedPBFGRatio = 2 }, "CachedPBFGRatio"},
		{func(c *Config) { c.CoolingWriteRatio = 0 }, "CoolingWriteRatio"},
		{func(c *Config) { c.SGsPerIndexGroup = 0 }, "SGsPerIndexGroup"},
		{func(c *Config) { c.Shards = -1 }, "Shards -1 must be non-negative"},
		{func(c *Config) { c.Shards = 3 }, "DataZones 8 not divisible by 3 shards"},
		{func(c *Config) { c.Flushers = -1 }, "Flushers -1 must be non-negative"},
		{func(c *Config) { c.BreakerThreshold = -1 }, "BreakerThreshold -1 must be non-negative"},
		{func(c *Config) { c.BreakerProbeAfter = -time.Second }, "BreakerProbeAfter -1s must be non-negative"},
		{func(c *Config) { c.WriteRetries = -1 }, "WriteRetries -1 must be non-negative"},
		{func(c *Config) { c.RetryBackoff = -time.Millisecond }, "RetryBackoff -1ms must be non-negative"},
	}
	for i, row := range bad {
		cfg := DefaultConfig(dev, 8)
		row.mutate(&cfg)
		_, err := NewSharded(cfg)
		if err == nil {
			t.Fatalf("bad config %d accepted (want %q)", i, row.want)
		}
		if !strings.Contains(err.Error(), row.want) {
			t.Fatalf("bad config %d: error %q, want it to name %q", i, err, row.want)
		}
	}
}

func TestRejectOversizedObject(t *testing.T) {
	c := testCache(t, nil)
	if err := c.Set([]byte("k-big-object-xxx"), make([]byte, 4096)); err == nil {
		t.Fatal("object larger than a set must be rejected")
	}
}

func TestTable3Defaults(t *testing.T) {
	dev := flashsim.New(flashsim.Config{})
	cfg := DefaultConfig(dev, 32)
	if cfg.MemSGs() != 2 {
		t.Fatalf("MemSGs() = %d, Table 3 says 2", cfg.MemSGs())
	}
	if cfg.SGsPerIndexGroup != 50 {
		t.Fatalf("SGsPerIndexGroup = %d, Table 3 says 50", cfg.SGsPerIndexGroup)
	}
	if cfg.BloomFPR != 0.001 {
		t.Fatalf("BloomFPR = %v, Table 3 says 0.1%%", cfg.BloomFPR)
	}
	if cfg.CachedPBFGRatio != 0.5 {
		t.Fatalf("CachedPBFGRatio = %v, Table 3 says 50%%", cfg.CachedPBFGRatio)
	}
	if HotTrackTail != 0.3 {
		t.Fatalf("HotTrackTail = %v, Table 3 says last 30%%", HotTrackTail)
	}
	if cfg.CoolingWriteRatio != 0.1 {
		t.Fatalf("CoolingWriteRatio = %v, Table 3 says every 10%%", cfg.CoolingWriteRatio)
	}
	if !cfg.BufferedSGs || !cfg.DelayedFlush || !cfg.Writeback {
		t.Fatal("all three techniques should default on")
	}
}

func TestMemoryOverheadModel(t *testing.T) {
	c := testCache(t, nil)
	m := c.Readout().Model
	if m.TotalBitsPerObj <= 0 {
		t.Fatal("overhead must be positive")
	}
	if m.BloomBitsPerObj <= m.HotBitsPerObj {
		t.Fatal("bloom share should dominate hotness share")
	}
	// With Table-3 parameters at device scale the paper totals 8.3 b/obj;
	// the components must at least follow 14.4×0.5 and 1×0.3.
	if m.BloomBitsPerObj < 7.0 || m.BloomBitsPerObj > 7.5 {
		t.Fatalf("bloom bits/obj = %v, want ≈7.2", m.BloomBitsPerObj)
	}
	if m.HotBitsPerObj != 0.3 {
		t.Fatalf("hot bits/obj = %v, want 0.3", m.HotBitsPerObj)
	}
}

func TestLatencyHistogramRecords(t *testing.T) {
	c := testCache(t, nil)
	for i := 0; i < 2000; i++ {
		k, v := kv(i)
		c.Set(k, v)
	}
	for i := 0; i < 2000; i++ {
		k, _ := kv(i)
		c.Get(k)
	}
	if c.ReadLatency().Count() != 2000 {
		t.Fatalf("latency histogram has %d samples, want 2000", c.ReadLatency().Count())
	}
	if c.ReadLatency().Max() == 0 {
		t.Fatal("some flash-backed reads should have non-zero latency")
	}
}
