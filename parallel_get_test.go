package nemo_test

// BenchmarkParallelGet and the off-the-lock assertion for the concurrent
// three-phase read path: flash I/O runs outside the shard mutex, so GETs on
// a single shard scale with goroutines instead of serializing on lock hold
// time. This file owns the goroutine axis; single-goroutine GET
// throughput and allocations per op are the lib_direct workload of
// benchmark/ (throughput_ops_s, runtime.allocs_per_op).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nemo"
)

// parallelGetZones is the fixture's total SG pool — the `nemobench compare` geometry,
// held constant across shard counts and large enough that the vast majority
// of hits serve from flash rather than the in-memory SGs.
const parallelGetZones = 48

// buildParallelGetCache constructs a sharded cache on a fresh simulated
// device and prefills it to roughly 3/4 of pool capacity with deterministic
// keys (prebuilt, so measurement loops charge no fmt allocations to the GET
// path). Index groups never seal at this geometry (48 SGs < the 50-SG
// group width), so lookups exercise the in-memory filter path plus the
// candidate flash read — the common production shape.
func buildParallelGetCache(tb testing.TB, shards int) (*nemo.ShardedCache, *nemo.SimDevice, [][]byte) {
	tb.Helper()
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: nemo.DeviceZonesFor(parallelGetZones, shards)})
	cfg := nemo.DefaultConfig(dev, parallelGetZones)
	cfg.Shards = shards
	c, err := nemo.NewSharded(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n := parallelGetZones * dev.PagesPerZone() * 10
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("gb-key-%08d-padpadpad", i))
		if err := c.Set(keys[i], []byte(fmt.Sprintf("gb-value-%08d-payload-payload-payload", i))); err != nil {
			c.Close()
			tb.Fatal(err)
		}
	}
	return c, dev, keys
}

// timeParallelGets issues ops GETs spread over goroutines — each walking the
// key space with a co-prime stride (uniform coverage, no rand allocations) —
// and returns the elapsed wall clock.
func timeParallelGets(c *nemo.ShardedCache, keys [][]byte, goroutines, ops int) time.Duration {
	var wg sync.WaitGroup
	per := ops / goroutines
	if per < 1 {
		per = 1
	}
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx := g * 7919
			for i := 0; i < per; i++ {
				idx += 6007
				c.Get(keys[idx%len(keys)])
			}
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// BenchmarkParallelGet measures GET throughput at 1/4/8 goroutines against
// one shard (pure read-path concurrency: every goroutine contends on the
// same shard's plan/commit lock) and at 8 shards (sharding stacked on
// top). Run with -benchmem to see the per-op allocation count the
// zero-allocation pins guard.
func BenchmarkParallelGet(b *testing.B) {
	for _, shards := range []int{1, 8} {
		c, _, keys := buildParallelGetCache(b, shards)
		for _, gs := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, gs), func(b *testing.B) {
				b.ReportAllocs()
				ops := b.N
				if ops < gs {
					ops = gs
				}
				b.ResetTimer()
				elapsed := timeParallelGets(c, keys, gs, ops)
				b.StopTimer()
				b.ReportMetric(float64(ops/gs*gs)*float64(time.Second)/float64(elapsed), "ops/s")
			})
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGetReadsFlashOffTheShardLock is the property moving flash I/O off the
// shard lock bought, checked on one shard — one mutex — without a stopwatch:
// a GET is parked inside its device read, and while it sits there a Set and
// an in-memory-hit Get on the same shard must both complete. Under the old
// fully-locked read path they would wait for the parked read, which waits
// for them: the watchdog is that deadlock's way out.
func TestGetReadsFlashOffTheShardLock(t *testing.T) {
	c, dev, keys := buildParallelGetCache(t, 1)
	defer c.Close()

	// The oldest keys are on flash, the newest still in the in-memory SGs.
	reads := func() uint64 { return c.Stats().FlashReadOps }
	var onFlash, inMemory []byte
	for _, k := range keys {
		before := reads()
		if _, hit := c.Get(k); hit && reads() > before {
			onFlash = k
			break
		}
	}
	before := reads()
	if _, hit := c.Get(keys[len(keys)-1]); hit && reads() == before {
		inMemory = keys[len(keys)-1]
	}
	if onFlash == nil || inMemory == nil {
		t.Fatalf("fixture has no flash-served key (%v) or no memory-served key (%v)", onFlash != nil, inMemory != nil)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dev.SetReadFault(func(int) error {
		once.Do(func() {
			close(parked)
			<-release
		})
		return nil
	})
	defer dev.SetReadFault(nil)
	parkedHit := make(chan bool, 1)
	go func() {
		_, hit := c.Get(onFlash)
		parkedHit <- hit
	}()
	watchdog := time.After(30 * time.Second)
	select {
	case <-parked:
	case <-watchdog:
		close(release)
		t.Fatal("the flash-served GET never reached the device")
	}

	type outcome struct {
		setErr error
		hit    bool
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		o.setErr = c.Set([]byte("off-the-lock-new-key"), []byte("off-the-lock-new-value"))
		_, o.hit = c.Get(inMemory)
		done <- o
	}()
	select {
	case o := <-done:
		if o.setErr != nil || !o.hit {
			t.Errorf("beside the parked read: Set error %v, in-memory Get hit=%v", o.setErr, o.hit)
		}
	case <-watchdog:
		t.Error("a Set and an in-memory Get waited for another GET's flash read: the shard lock is held across device I/O")
	}
	close(release)
	if !<-parkedHit {
		t.Error("the parked GET missed once released")
	}
}
