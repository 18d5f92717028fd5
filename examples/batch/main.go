// Batch: drive the whole of Engine — batched multi-ops, deletes, and the
// asynchronous background flush pipeline — against a sharded Nemo cache.
//
// The sequence mirrors a production cache service's request mix: warm the
// cache with non-blocking SetAsync writes (SG flushes land on the flusher
// pool, not the request path), read back with one batched GetMany per
// request bundle (one hash pass, per-shard sub-batches, parallel fan-out),
// invalidate a few keys, and drain before reading the final counters.
package main

import (
	"fmt"
	"log"

	"nemo"
)

func main() {
	// An 8-shard cache over one simulated ZNS device, with 2 background
	// flusher goroutines serving all shards.
	const shards = 8
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: nemo.DeviceZonesFor(48, shards)})
	cfg := nemo.DefaultConfig(dev, 48)
	cfg.Shards = shards
	cfg.Flushers = 2
	cache, err := nemo.NewSharded(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("obj:%08d", i)) }
	val := func(i int) []byte {
		return []byte(fmt.Sprintf("tiny payload %08d padded to a couple hundred bytes %0160d", i, i))
	}

	// 1. Asynchronous warmup: SetAsync returns as soon as the object is in
	// the in-memory SG; full SGs flush on the background pool.
	const objects = 120_000
	for i := 0; i < objects; i++ {
		if err := cache.SetAsync(key(i), val(i)); err != nil {
			log.Fatal(err)
		}
	}
	// Drain before measuring: all deferred flushes reach flash here.
	if err := cache.Drain(); err != nil {
		log.Fatal(err)
	}

	// 2. Batched reads: one GetMany per 64-key bundle. The sharded engine
	// hashes each key once, groups the bundle by shard, and fans the
	// sub-batches out in parallel.
	hits := 0
	const bundle = 64
	for lo := objects - 20_000; lo < objects; lo += bundle {
		keys := make([][]byte, 0, bundle)
		for i := lo; i < lo+bundle && i < objects; i++ {
			keys = append(keys, key(i))
		}
		_, hs := cache.GetMany(keys)
		for _, h := range hs {
			if h {
				hits++
			}
		}
	}

	// 3. Invalidation: Delete tombstones the entry — the next Get misses
	// even though Nemo keeps no exact per-object index.
	for i := objects - 10; i < objects; i++ {
		if err := cache.Delete(key(i)); err != nil {
			log.Fatal(err)
		}
	}
	stale := 0
	for i := objects - 10; i < objects; i++ {
		if _, hit := cache.Get(key(i)); hit {
			stale++
		}
	}

	st := cache.Stats()
	fmt.Printf("objects written (async) : %d\n", st.Sets)
	fmt.Printf("batched read hits       : %d/20000\n", hits)
	fmt.Printf("deletes                 : %d (stale reads after delete: %d)\n", st.Deletes, stale)
	fmt.Printf("write amplification     : %.2f (paper's Nemo: 1.56)\n", cache.PaperWA())
	fmt.Printf("mean SG fill rate       : %.1f%%\n", cache.MeanFillRate()*100)
	if stale > 0 {
		log.Fatal("delete left stale reads")
	}
}
