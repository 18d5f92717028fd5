package nemo_test

// Cross-module integration tests: the public API, all five engines on one
// workload, value integrity through flush/eviction/writeback cycles, and
// the paper's headline orderings at small scale.

import (
	"fmt"
	"testing"

	"nemo"
	"nemo/internal/trace"
)

func newSmallDevice() nemo.Device {
	return nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 32, Zones: 56})
}

func newNemo(t testing.TB) (nemo.Device, *nemo.ShardedCache) {
	t.Helper()
	dev := newSmallDevice()
	c, err := nemo.NewSharded(nemo.DefaultConfig(dev, 48))
	if err != nil {
		t.Fatal(err)
	}
	return dev, c
}

func TestPublicAPISmoke(t *testing.T) {
	_, c := newNemo(t)
	defer c.Close()
	if err := c.Set([]byte("public-api-key-1"), []byte("public-api-value")); err != nil {
		t.Fatal(err)
	}
	v, hit := c.Get([]byte("public-api-key-1"))
	if !hit || string(v) != "public-api-value" {
		t.Fatalf("get = %q %v", v, hit)
	}
}

// TestValueIntegrityUnderChurn replays a skewed workload and verifies every
// hit returns exactly the deterministic payload for its key — across memory
// hits, flash hits, sacrifice, eviction, and writeback.
func TestValueIntegrityUnderChurn(t *testing.T) {
	_, c := newNemo(t)
	defer c.Close()
	cfg := trace.ClusterConfig{Name: "integ", KeySize: 24, ValueMean: 200,
		ValueStd: 80, Keys: 40_000, ZipfAlpha: 1.2, Seed: 17}
	s := trace.NewZipf(cfg)
	var req trace.Request
	hits := 0
	for i := 0; i < 150_000; i++ {
		s.Next(&req)
		if v, hit := c.Get(req.Key); hit {
			hits++
			// The generator's values are deterministic per key: any hit
			// must return the exact payload.
			want := makeWant(req.Key, cfg)
			if string(v) != string(want) {
				t.Fatalf("op %d: corrupt value for key %q", i, req.Key)
			}
		} else {
			if err := c.Set(req.Key, req.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits == 0 {
		t.Fatal("workload produced no hits; test proves nothing")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions; churn insufficient")
	}
}

// makeWant regenerates the deterministic value for a generated key. The
// generator derives values from the permuted object id, which is embedded
// as the first 16 hex chars of the key.
func makeWant(key []byte, cfg trace.ClusterConfig) []byte {
	var id uint64
	for i := 15; i >= 0; i-- {
		c := key[i]
		var d uint64
		if c >= 'a' {
			d = uint64(c-'a') + 10
		} else {
			d = uint64(c - '0')
		}
		id = id<<4 | d
	}
	var req trace.Request
	size := trace.ValueSize(id, cfg.ValueMean, cfg.ValueStd, 1, 1<<11)
	trace.FillValue(&req, size, id)
	return req.Value
}

// TestAllEnginesServeSameWorkload runs every engine over one stream and
// checks basic sanity: hits occur, WA ordering matches the paper's design
// analysis (Log < Nemo << hierarchical/set).
func TestAllEnginesServeSameWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine replay is slow")
	}
	type build struct {
		name string
		mk   func(nemo.Device) (nemo.Engine, error)
	}
	builds := []build{
		{"Nemo", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewSharded(nemo.DefaultConfig(d, 48))
		}},
		{"Log", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewLogCache(nemo.LogCacheConfig{Device: d})
		}},
		{"Set", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewSetCache(nemo.SetCacheConfig{Device: d})
		}},
		{"FW", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewFairyWREN(nemo.FairyWRENConfig{Device: d})
		}},
		{"KG", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewKangaroo(nemo.KangarooConfig{Device: d})
		}},
	}
	was := map[string]float64{}
	for _, b := range builds {
		dev := newSmallDevice()
		e, err := b.mk(dev)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		workload, err := nemo.NewWorkload(dev.CapacityBytes()*3/4, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nemo.Replay(e, workload, nemo.ReplayConfig{
			Ops:   150_000,
			Clock: dev.Clock(),
		})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		st := res.Final
		if st.Hits == 0 {
			t.Fatalf("%s: zero hits", b.name)
		}
		if st.MissRatio() > 0.9 {
			t.Fatalf("%s: miss ratio %.2f implausibly high", b.name, st.MissRatio())
		}
		was[b.name] = st.TotalWA()
		e.Close()
	}
	t.Logf("total WA: %+v", was)
	if !(was["Log"] < was["FW"] && was["Nemo"] < was["FW"]) {
		t.Fatalf("WA ordering violated: %+v", was)
	}
	if was["FW"] >= was["KG"] {
		t.Fatalf("FairyWREN should beat Kangaroo on WA: %+v", was)
	}
	if was["Nemo"] > 4 {
		t.Fatalf("Nemo WA %v too high", was["Nemo"])
	}
}

// TestDeterministicReplay checks that two identical runs produce identical
// stats — the property all experiments rely on.
func TestDeterministicReplay(t *testing.T) {
	run := func() nemo.Stats {
		dev := newSmallDevice()
		c, err := nemo.NewSharded(nemo.DefaultConfig(dev, 48))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w, err := nemo.NewWorkload(dev.CapacityBytes(), 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nemo.Replay(c, w, nemo.ReplayConfig{Ops: 60_000, Clock: dev.Clock()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestConcurrentAccess hammers the Nemo cache from multiple goroutines to
// validate the locking story under -race.
func TestConcurrentAccess(t *testing.T) {
	_, c := newNemo(t)
	defer c.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 3000; i++ {
				key := []byte(fmt.Sprintf("conc-%d-%06d", g, i))
				if e := c.Set(key, []byte("concurrent-value-payload")); e != nil {
					err = e
					break
				}
				c.Get(key)
				c.Get([]byte(fmt.Sprintf("conc-%d-%06d", (g+1)%4, i)))
			}
			done <- err
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadFaultPropagation injects device read faults and verifies the
// cache degrades to misses rather than panicking or returning garbage.
func TestReadFaultPropagation(t *testing.T) {
	dev, c := newNemo(t)
	defer c.Close()
	var keys [][]byte
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("fault-key-%06d", i))
		if err := c.Set(k, []byte("fault-value-payload-xxxx")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.SetReadFault(func(page int) error { return fmt.Errorf("injected ECC error") })
	misses := 0
	for _, k := range keys[:500] {
		if _, hit := c.Get(k); !hit {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("all reads succeeded despite total read failure")
	}
	dev.SetReadFault(nil)
	hits := 0
	for _, k := range keys[len(keys)-500:] {
		if _, hit := c.Get(k); hit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("cache did not recover after faults cleared")
	}
}
