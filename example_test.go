package nemo_test

// Runnable examples of the public API. Every one runs on the simulated
// device with Config.Flushers = 0 — flushes run inline on the writer — or
// prints only what flush timing cannot move, so each output is exact.

import (
	"fmt"
	"log"

	"nemo"
)

// Create a simulated zoned flash device, build a Nemo cache on it with the
// paper's Table 3 defaults, and exercise the KV API.
func Example() {
	// A 64-zone simulated ZNS device: 4 KB pages, 96-page (384 KB) zones.
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 96, Zones: 64})

	// Use 56 zones as the SG pool; the rest hold the on-flash PBFG index.
	cache, err := nemo.NewSharded(nemo.DefaultConfig(dev, 56))
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	// Tiny objects, like the tweets and comments the paper motivates.
	for i := 0; i < 50_000; i++ {
		key := fmt.Sprintf("tweet:%08d", i)
		value := fmt.Sprintf("tiny object payload number %d — capped at a few hundred bytes", i)
		if err := cache.Set([]byte(key), []byte(value)); err != nil {
			log.Fatal(err)
		}
	}

	// Read some back (recent keys are likely still cached; the oldest were
	// FIFO-evicted at SG granularity).
	hits := 0
	for i := 49_000; i < 50_000; i++ {
		if _, ok := cache.Get([]byte(fmt.Sprintf("tweet:%08d", i))); ok {
			hits++
		}
	}

	st := cache.Stats()
	fmt.Printf("inserted objects       : %d\n", st.Sets)
	fmt.Printf("recent-keys hit        : %d/1000\n", hits)
	r := cache.Readout()
	fmt.Printf("mean SG fill rate      : %.1f%%\n", r.MeanFillRate()*100)
	fmt.Printf("write amplification    : %.2f (paper's Nemo: 1.56)\n", r.PaperWA())
	fmt.Printf("metadata bits/object   : %.1f (paper: 8.3)\n", cache.Shard(0).Readout().Model.TotalBitsPerObj)
	fmt.Printf("device writes          : %.1f MB over %d zone resets\n",
		float64(dev.Stats().BytesWritten)/(1<<20), dev.Stats().ZoneResets)
	// Output:
	// inserted objects       : 50000
	// recent-keys hit        : 1000/1000
	// mean SG fill rate      : 96.6%
	// write amplification    : 1.18 (paper's Nemo: 1.56)
	// metadata bits/object   : 75.9 (paper: 8.3)
	// device writes          : 4.1 MB over 0 zone resets
}

// Drive the whole of Engine — batched multi-ops, deletes, and the
// asynchronous background flush pipeline — against an 8-shard cache, the
// request mix of a production cache service: warm the cache with SetAsync
// (full SGs flush on the flusher pool, not the request path), read back
// with one GetMany per bundle (one hash pass, per-shard sub-batches,
// parallel fan-out), invalidate a few keys, and drain before reading the
// counters. Hits depend on when the pool's flushes land, so only the
// counters the pool cannot move are printed.
func Example_batch() {
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
	const objects = 40_000
	for i := 0; i < objects; i++ {
		if err := cache.SetAsync(key(i), val(i)); err != nil {
			log.Fatal(err)
		}
	}
	// Drain before reading: all deferred flushes reach flash here.
	if err := cache.Drain(); err != nil {
		log.Fatal(err)
	}

	// 2. Batched reads: one GetMany per 64-key bundle. The sharded engine
	// hashes each key once, groups the bundle by shard, and fans the
	// sub-batches out in parallel.
	const bundle = 64
	for lo := objects - 10_000; lo < objects; lo += bundle {
		keys := make([][]byte, 0, bundle)
		for i := lo; i < lo+bundle && i < objects; i++ {
			keys = append(keys, key(i))
		}
		cache.GetMany(keys)
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
	fmt.Printf("deletes                 : %d\n", st.Deletes)
	fmt.Printf("stale reads after delete: %d\n", stale)
	// Output:
	// objects written (async) : 40000
	// deletes                 : 10
	// stale reads after delete: 0
}

// Run one workload through all five cache designs — Nemo, the
// log-structured and set-associative extremes, and the two hierarchical
// baselines — for a Figure 12a-style summary of the trade-off space: write
// amplification vs miss ratio. (Paper: Nemo 1.56, Log 1.08, FW 15.2, Set
// 16.31, KG 55.59; the ordering and rough factors reproduce, absolute values
// depend on scale.)
func Example_comparison() {
	type build struct {
		name string
		mk   func(nemo.Device) (nemo.Engine, error)
	}
	builds := []build{
		{"Nemo", func(d nemo.Device) (nemo.Engine, error) {
			return nemo.NewSharded(nemo.DefaultConfig(d, d.Zones()-nemo.IndexZonesFor(d.Zones()-4, 50)-1))
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

	fmt.Printf("%-6s %8s %8s %8s %10s\n", "engine", "ALWA", "totalWA", "miss", "flash MB")
	for _, b := range builds {
		dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: 80})
		e, err := b.mk(dev)
		if err != nil {
			log.Fatalf("%s: %v", b.name, err)
		}
		workload, err := nemo.NewWorkload(dev.CapacityBytes()*3/4, 7)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nemo.Replay(e, workload, nemo.ReplayConfig{
			Ops:   150_000,
			Clock: dev.Clock(),
		})
		if err != nil {
			log.Fatalf("%s: %v", b.name, err)
		}
		st := res.Final
		fmt.Printf("%-6s %8.2f %8.2f %7.1f%% %10.1f\n",
			b.name, st.ALWA(), st.TotalWA(), st.MissRatio()*100, float64(st.DeviceBytesWritten)/(1<<20))
		e.Close()
	}
	// Output:
	// engine     ALWA  totalWA     miss   flash MB
	// Nemo       1.11     1.11    12.9%        6.5
	// Log        1.08     1.08    12.8%        6.3
	// Set       12.90    15.28    12.9%       89.8
	// FW         6.47     6.47    12.9%       38.0
	// KG         8.12    13.33    12.8%       77.8
}

// §6 of the paper ("Device compatibility"): the same Nemo cache on three
// device personalities — a large-zone ZNS SSD (ZN540-like, 14 open zones
// max), a small-zone ZNS SSD (PM1731a-like) and a conventional namespace
// (no open-zone limit, FIFO writes only). An SG is one zone, so SG size
// follows zone size: the small-zone device holds the same capacity in
// quarter-size SGs (the abl-sgsize experiment sweeps SG size this way).
// Nemo's coarse-grained FIFO write pattern needs no code changes across
// them. On FDP SSDs the mapping inverts (several SGs per reclaim unit); the
// FIFO pool ensures SGs sharing a reclaim unit die together, so DLWA stays
// ≈1 there too.
func Example_deviceCompat() {
	personalities := []struct {
		name   string
		device nemo.DeviceConfig
	}{
		{"large-zone ZNS (ZN540-like)", nemo.DeviceConfig{PagesPerZone: 64, Zones: 40, MaxOpenZones: 14}},
		{"small-zone ZNS (PM1731a-like)", nemo.DeviceConfig{PagesPerZone: 16, Zones: 160, MaxOpenZones: 14}},
		{"conventional namespace", nemo.DeviceConfig{PagesPerZone: 64, Zones: 40}},
	}
	fmt.Printf("%-30s %7s %6s %6s %12s\n", "device", "fill", "WA", "miss", "zone resets")
	for _, p := range personalities {
		dev := nemo.NewDevice(p.device)
		cache, err := nemo.NewSharded(nemo.DefaultConfig(dev, dev.Zones()-8))
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		workload, err := nemo.NewWorkload(dev.CapacityBytes(), 11)
		if err != nil {
			log.Fatal(err)
		}
		res, err := nemo.Replay(cache, workload, nemo.ReplayConfig{
			Ops:   250_000,
			Clock: dev.Clock(),
		})
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		r := cache.Readout()
		fmt.Printf("%-30s %6.1f%% %6.2f %5.1f%% %12d\n",
			p.name, r.MeanFillRate()*100, r.PaperWA(),
			res.Final.MissRatio()*100, dev.Stats().ZoneResets)
		cache.Close()
	}
	// Output:
	// device                            fill     WA   miss  zone resets
	// large-zone ZNS (ZN540-like)      88.9%   1.16  10.4%            4
	// small-zone ZNS (PM1731a-like)    94.0%   1.05  10.2%            0
	// conventional namespace           88.9%   1.16  10.4%            4
}

// Sweep Nemo's two user-facing knobs the paper studies in its sensitivity
// analysis: the flush threshold p_th (Figure 18 — later flushes raise SG
// fill and lower WA, at the cost of sacrificed objects) and the cached-PBFG
// ratio (Figure 19b — more index memory, fewer on-flash index reads).
func Example_tuning() {
	run := func(mutate func(*nemo.Config)) *nemo.ShardedCache {
		dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 16, Zones: 80})
		cfg := nemo.DefaultConfig(dev, dev.Zones()-nemo.IndexZonesFor(dev.Zones()-4, 50)-1)
		mutate(&cfg)
		cache, err := nemo.NewSharded(cfg)
		if err != nil {
			log.Fatal(err)
		}
		workload, err := nemo.NewWorkload(dev.CapacityBytes()*3/4, 3)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := nemo.Replay(cache, workload, nemo.ReplayConfig{
			Ops: 100_000, Clock: dev.Clock(),
		}); err != nil {
			log.Fatal(err)
		}
		return cache
	}

	fmt.Println("p_th sweep (Figure 18): flush threshold vs fill rate and WA")
	fmt.Printf("%8s %7s %6s %11s\n", "p_th", "fill", "WA", "sacrificed")
	for _, pth := range []int{1, 16, 256} {
		cache := run(func(c *nemo.Config) { c.FlushThreshold = pth })
		r := cache.Readout()
		fmt.Printf("%8d %6.1f%% %6.2f %11d\n", pth, r.MeanFillRate()*100, r.PaperWA(), r.Sacrificed)
		cache.Close()
	}

	fmt.Println("cached-PBFG ratio sweep (Figure 19b): index memory vs index-pool reads")
	fmt.Printf("%8s %10s %13s\n", "cached", "PBFG miss", "mem bits/obj")
	for _, ratio := range []float64{0.2, 0.4, 0.6} {
		cache := run(func(c *nemo.Config) { c.CachedPBFGRatio = ratio })
		r := cache.Shard(0).Readout()
		fmt.Printf("%7.0f%% %9.2f%% %13.1f\n", ratio*100, r.PBFGMissRatio()*100, r.Model.TotalBitsPerObj)
		cache.Close()
	}
	// Output:
	// p_th sweep (Figure 18): flush threshold vs fill rate and WA
	//     p_th    fill     WA  sacrificed
	//        1   87.7%   1.17          89
	//       16   95.5%   0.99         908
	//      256   96.1%   0.72        4204
	// cached-PBFG ratio sweep (Figure 19b): index memory vs index-pool reads
	//   cached  PBFG miss  mem bits/obj
	//      20%     41.08%          51.4
	//      40%      0.07%          54.3
	//      60%      0.07%          57.2
}

// Drive Nemo with the paper's benchmark workload — the four Table 5
// Twitter-like clusters, Zipf-skewed and proportionally interleaved, under
// enough working-set pressure to trigger SG eviction — and report the
// paper's headline metrics: write amplification and miss ratio.
func Example_twitterReplay() {
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 24, Zones: 60})
	dataZones := dev.Zones() - nemo.IndexZonesFor(dev.Zones()-6, 50) - 1
	cache, err := nemo.NewSharded(nemo.DefaultConfig(dev, dataZones))
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	// Working set ≈ 1.4× cache capacity, split over the four clusters.
	workload, err := nemo.NewWorkload(dev.CapacityBytes()*14/10/4, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nemo.Replay(cache, workload, nemo.ReplayConfig{
		Ops:   500_000,
		Clock: dev.Clock(),
	})
	if err != nil {
		log.Fatal(err)
	}

	r := cache.Readout()
	fmt.Printf("write amplification : %.2f (paper: 1.56)\n", r.PaperWA())
	fmt.Printf("mean SG fill rate   : %.1f%% (paper: 89.3%%)\n", r.MeanFillRate()*100)
	fmt.Printf("miss ratio          : %.1f%%\n", res.Final.MissRatio()*100)
	fmt.Printf("SGs flushed         : %d (writeback objects: %d, sacrificed: %d)\n",
		r.SGsFlushed, r.WriteBackObjs, r.Sacrificed)
	fmt.Printf("PBFG cache misses   : %.1f%% of index lookups (paper: <8%% at 50%% cached)\n", cache.Shard(0).Readout().PBFGMissRatio()*100)
	fmt.Println("WA timeline:")
	for i, tp := range res.Timeline {
		if i%8 == 0 {
			fmt.Printf("  %7d ops  WA=%5.2f  miss=%5.1f%%\n", tp.Ops, tp.ALWA, tp.MissRatio*100)
		}
	}
	// Output:
	// write amplification : 1.10 (paper: 1.56)
	// mean SG fill rate   : 94.5% (paper: 89.3%)
	// miss ratio          : 4.9%
	// SGs flushed         : 86 (writeback objects: 953, sacrificed: 704)
	// PBFG cache misses   : 0.0% of index lookups (paper: <8% at 50% cached)
	// WA timeline:
	//      7812 ops  WA= 0.85  miss= 23.7%
	//     70308 ops  WA= 1.02  miss= 11.2%
	//    132804 ops  WA= 1.04  miss=  8.5%
	//    195300 ops  WA= 1.06  miss=  7.1%
	//    257796 ops  WA= 1.09  miss=  6.1%
	//    320292 ops  WA= 1.09  miss=  5.6%
	//    382788 ops  WA= 1.09  miss=  5.3%
	//    445284 ops  WA= 1.11  miss=  5.1%
}
