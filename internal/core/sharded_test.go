package core

import (
	"fmt"
	"sync"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/enginetest"
	"nemo/internal/flashsim"
	"nemo/internal/setblock"
	"nemo/internal/trace"
)

// shardedGeom builds a device sized for n shards of perData zones each,
// using the same small geometry as testCache, and the matching total config.
func shardedGeom(t *testing.T, n, perData int) (*flashsim.Device, Config) {
	t.Helper()
	base := Config{
		FlushThreshold:    8,
		SGsPerIndexGroup:  4,
		BloomFPR:          0.001,
		CachedPBFGRatio:   0.5,
		CoolingWriteRatio: 0.1,
		BufferedSGs:       true,
		DelayedFlush:      true,
		Writeback:         true,
	}
	base.DataZones = n * perData
	base.Shards = n
	perShard := base
	perShard.DataZones = perData
	zones := n * (perData + IndexZonesFor(perData, perShard.SGsPerIndexGroup))
	dev := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16, Zones: zones})
	base.Device = dev
	return dev, base
}

// shardedTrace materializes a deterministic Zipf trace sized to cycle the
// pool several times.
func shardedTrace(ops int) []trace.Request {
	return trace.Materialize(trace.NewZipf(trace.ClusterConfig{
		Name: "sharded-test", KeySize: 20, ValueMean: 64, ValueStd: 24,
		Keys: 4096, ZipfAlpha: 1.2, Seed: 7,
	}), ops)
}

// demandFill replays reqs sequentially with the look-aside pattern.
func demandFill(t *testing.T, e interface {
	Get([]byte) ([]byte, bool)
	Set([]byte, []byte) error
}, reqs []trace.Request) {
	t.Helper()
	for i := range reqs {
		req := &reqs[i]
		if _, hit := e.Get(req.Key); !hit {
			if err := e.Set(req.Key, req.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedSingleShardEquivalence is the refactor's property test: a
// Sharded cache with Shards=1 must reproduce the plain engine's replay
// statistics exactly — same hits, same flash traffic, same paper WA — on a
// deterministic trace.
func TestShardedSingleShardEquivalence(t *testing.T) {
	reqs := shardedTrace(30_000)

	_, cfgA := shardedGeom(t, 1, 8)
	plain, err := newBare(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	demandFill(t, plain, reqs)

	_, cfgB := shardedGeom(t, 1, 8)
	sharded, err := NewSharded(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	demandFill(t, sharded, reqs)

	if got, want := sharded.Stats(), plain.Stats(); got != want {
		t.Fatalf("stats diverged:\nsharded: %+v\nplain:   %+v", got, want)
	}
	if got, want := sharded.Readout().NemoStats, plain.Readout().NemoStats; got != want {
		t.Fatalf("extra stats diverged:\nsharded: %+v\nplain:   %+v", got, want)
	}
	if got, want := sharded.Readout().PaperWA(), plain.Readout().PaperWA(); got != want {
		t.Fatalf("paper WA diverged: %v vs %v", got, want)
	}
	devA := cfgA.Device.Stats()
	devB := cfgB.Device.Stats()
	if devA != devB {
		t.Fatalf("device stats diverged:\nsharded: %+v\nplain:   %+v", devB, devA)
	}
}

// TestConformance runs the engine-contract table every baseline runs against
// the bare engine and the two-shard facade.
func TestConformance(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		enginetest.Conformance(t, func(t *testing.T) cachelib.Engine {
			_, cfg := shardedGeom(t, 1, 8)
			c, err := newBare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
	})
	t.Run("sharded2", func(t *testing.T) {
		enginetest.Conformance(t, func(t *testing.T) cachelib.Engine {
			_, cfg := shardedGeom(t, 2, 4)
			s, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// TestShardedAggregateCounts replays the same trace at several shard counts
// and checks that the aggregate accounting is coherent: every request is
// counted exactly once, per-shard counters sum to the facade's totals, and
// every shard receives traffic.
func TestShardedAggregateCounts(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			reqs := shardedTrace(30_000)
			_, cfg := shardedGeom(t, n, 8)
			s, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			demandFill(t, s, reqs)

			st := s.Stats()
			if st.Gets != uint64(len(reqs)) {
				t.Fatalf("Gets = %d, want %d", st.Gets, len(reqs))
			}
			if st.Sets != st.Gets-st.Hits {
				t.Fatalf("Sets = %d, want misses = %d", st.Sets, st.Gets-st.Hits)
			}
			var sum, mem, pool int
			for i := 0; i < s.NumShards(); i++ {
				shard := s.Shard(i)
				ss := shard.Stats()
				if ss.Gets == 0 {
					t.Fatalf("shard %d received no traffic", i)
				}
				sum += int(ss.Gets)
				mem += shard.MemObjects()
				pool += shard.PoolLen()
			}
			if sum != len(reqs) {
				t.Fatalf("per-shard Gets sum to %d, want %d", sum, len(reqs))
			}
			if mem == 0 {
				t.Fatal("no objects buffered in memory")
			}
			if pool == 0 {
				t.Fatal("no SGs reached flash")
			}
		})
	}
}

// TestShardedBatchMatchesSerial pins, on real Nemo shards, the property the
// shared facade carries for every engine: a GetMany/SetMany behaves, value for
// value and counter for counter, like the serial Get/Set sequence in batch
// order — including batches that repeat a key (the later write wins), ask for
// keys never set, and ask for a deleted key.
func TestShardedBatchMatchesSerial(t *testing.T) {
	// The index cache holds every PBFG page: when it evicts mid-batch, a
	// batch's fetch sharing saves refetches the serial path repays (see
	// TestGetManyMatchesSerialGets), and the read counters part by design.
	_, cfgA := shardedGeom(t, 4, 8)
	cfgA.CachedPBFGRatio = 1
	serial, err := NewSharded(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	_, cfgB := shardedGeom(t, 4, 8)
	cfgB.CachedPBFGRatio = 1
	batched, err := NewSharded(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("batch-key-%06d", i)) }
	val := func(i, ver int) []byte { return []byte(fmt.Sprintf("batch-value-%06d-v%03d-padpadpad", i, ver)) }

	const n, rounds, batch = 1200, 4, 16
	for r := 0; r < rounds; r++ {
		for lo := 0; lo < n; lo += batch {
			var keys, vals [][]byte
			for i := lo; i < lo+batch; i++ {
				keys, vals = append(keys, key(i)), append(vals, val(i, r))
			}
			// Repeat the batch's first key with a newer value.
			keys, vals = append(keys, key(lo)), append(vals, val(lo, r+100))
			for j := range keys {
				if err := serial.Set(keys[j], vals[j]); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.SetMany(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
		deleted := key(r * 37)
		if err := serial.Delete(deleted); err != nil {
			t.Fatal(err)
		}
		if err := batched.Delete(deleted); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += batch {
			keys := [][]byte{deleted, key(n + lo)} // a deleted key and one never set
			for i := lo; i < lo+batch; i++ {
				keys = append(keys, key(i))
			}
			keys = append(keys, key(lo+1), deleted) // repeats
			vals, hits := batched.GetMany(keys)
			for j, k := range keys {
				v, hit := serial.Get(k)
				if hit != hits[j] || string(v) != string(vals[j]) {
					t.Fatalf("round %d key %q: batched (%q,%v) != serial (%q,%v)", r, k, vals[j], hits[j], v, hit)
				}
			}
			if hits[0] || hits[1] {
				t.Fatalf("round %d: deleted or never-set key hit: %v", r, hits[:2])
			}
		}
	}
	for i := 0; i < serial.NumShards(); i++ {
		if got, want := batched.Shard(i).Stats(), serial.Shard(i).Stats(); got != want {
			t.Fatalf("shard %d stats diverged:\nbatched: %+v\nserial:  %+v", i, got, want)
		}
	}
	if got, want := batched.Stats(), serial.Stats(); got != want {
		t.Fatalf("stats diverged:\nbatched: %+v\nserial:  %+v", got, want)
	}
	if got, want := batched.Readout().NemoStats, serial.Readout().NemoStats; got != want {
		t.Fatalf("extra stats diverged:\nbatched: %+v\nserial:  %+v", got, want)
	}
	if st := batched.Stats(); st.Hits == 0 || st.FlashReadOps == 0 || st.Evictions == 0 {
		t.Fatalf("equivalence proved nothing: %+v", st)
	}
}

// TestShardedFlushVisitsEveryShard pins Flush to the contract Close and Drain
// already keep: a failing shard does not leave the shards after it unflushed,
// and the first error is still returned.
func TestShardedFlushVisitsEveryShard(t *testing.T) {
	dev, cfg := shardedGeom(t, 2, 8)
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Shard(0).MemObjects() == 0 || s.Shard(1).MemObjects() == 0; i++ {
		k := []byte(fmt.Sprintf("flush-key-%06d", i))
		if err := s.Set(k, valueForKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 owns the first half of the device's zones, data and index.
	shard1From := dev.Zones() / 2
	dev.SetWriteFault(func(zone int) error {
		if zone < shard1From {
			return fmt.Errorf("injected write error in zone %d", zone)
		}
		return nil
	})
	defer dev.SetWriteFault(nil)
	before := s.Shard(1).MemObjects()
	if err := s.Flush(); err == nil {
		t.Fatal("Flush swallowed shard 0's write error")
	}
	if after := s.Shard(1).MemObjects(); after >= before {
		t.Fatalf("shard 1 still buffers %d of %d objects: Flush stopped at the failing shard", after, before)
	}
}

// TestShardedOpenZoneBudget pins the shared-device validation: a device
// whose open-zone limit cannot cover one concurrently open zone per shard
// must be rejected at construction, not fail nondeterministically mid-run.
func TestShardedOpenZoneBudget(t *testing.T) {
	_, cfg := shardedGeom(t, 4, 8)
	tight := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16,
		Zones: cfg.Device.Zones(), MaxOpenZones: 3})
	cfg.Device = tight
	if _, err := NewSharded(cfg); err == nil {
		t.Fatal("NewSharded accepted 4 shards on a device limited to 3 open zones")
	}
	roomy := flashsim.New(flashsim.Config{PageSize: 512, PagesPerZone: 16,
		Zones: cfg.Device.Zones(), MaxOpenZones: 4})
	cfg.Device = roomy
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	demandFill(t, s, shardedTrace(20_000))
}

// TestShardedRouting pins the shard router: every key must land on the shard
// the facade reports, and the distribution over shards must be roughly even.
func TestShardedRouting(t *testing.T) {
	_, cfg := shardedGeom(t, 4, 8)
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, s.NumShards())
	const keys = 40_000
	for i := 0; i < keys; i++ {
		counts[s.ShardOf([]byte(fmt.Sprintf("routing-key-%08d", i)))]++
	}
	want := keys / len(counts)
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("shard %d owns %d of %d keys (want ≈%d): routing is skewed", i, c, keys, want)
		}
	}
}

// valueForKey derives the deterministic payload every writer stores for a
// key, so concurrent readers can verify any hit byte-for-byte.
func valueForKey(k []byte) []byte {
	return []byte(fmt.Sprintf("payload-of-%s-%032d", k, len(k)))
}

// TestShardedConcurrentGetAfterPut hammers one sharded cache from many
// goroutines over an overlapping key space. Every key maps to a single
// deterministic value, so any hit must return exactly that value — a cross-
// key mixup, torn read, or stale-size corruption fails the test, and the
// race detector checks the locking. Run with -race.
func TestShardedConcurrentGetAfterPut(t *testing.T) {
	_, cfg := shardedGeom(t, 4, 8)
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		keys    = 512
		opsEach = 15_000
	)
	var hits, misses [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := []byte(fmt.Sprintf("shared-key-%06d", (w*31+i*7)%keys))
				want := valueForKey(k)
				if got, hit := s.Get(k); hit {
					hits[w]++
					if string(got) != string(want) {
						t.Errorf("key %s returned wrong value %q", k, got)
						return
					}
				} else {
					misses[w]++
					if err := s.Set(k, want); err != nil {
						t.Errorf("set %s: %v", k, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	totalHits, totalMisses := 0, 0
	for w := 0; w < workers; w++ {
		totalHits += hits[w]
		totalMisses += misses[w]
	}
	if totalHits == 0 {
		t.Fatal("no hits at all: cache is not retaining concurrent writes")
	}
	st := s.Stats()
	if st.Gets != uint64(workers*opsEach) {
		t.Fatalf("Gets = %d, want %d", st.Gets, workers*opsEach)
	}
	if st.Hits != uint64(totalHits) {
		t.Fatalf("engine counted %d hits, workers observed %d", st.Hits, totalHits)
	}
}

// TestDeviceZonesForMatchesNewSharded pins the two sizing functions callers
// size a device and a request limit with against the code that decides:
// a DefaultConfig cache constructs on exactly DeviceZonesFor zones and is
// refused on one fewer, and Set admits an object of exactly
// setblock.MaxObjectBytes and refuses one byte more.
func TestDeviceZonesForMatchesNewSharded(t *testing.T) {
	const dataZones, pageSize = 48, 4096
	for _, shards := range []int{1, 2, 4, 8} {
		build := func(zones int) (*Sharded, error) {
			dev := flashsim.New(flashsim.Config{PageSize: pageSize, PagesPerZone: 16, Zones: zones})
			cfg := DefaultConfig(dev, dataZones)
			cfg.Shards = shards
			return NewSharded(cfg)
		}
		zones := DeviceZonesFor(dataZones, shards)
		if c, err := build(zones - 1); err == nil {
			c.Close()
			t.Fatalf("shards=%d: constructed on %d zones, one fewer than DeviceZonesFor", shards, zones-1)
		}
		c, err := build(zones)
		if err != nil {
			t.Fatalf("shards=%d: refused on DeviceZonesFor = %d zones: %v", shards, zones, err)
		}
		key := []byte("capacity-key")
		fits := make([]byte, setblock.MaxObjectBytes(pageSize)-len(key))
		if err := c.Set(key, fits); err != nil {
			t.Fatalf("shards=%d: object of exactly MaxObjectBytes refused: %v", shards, err)
		}
		if err := c.Set(key, append(fits, 0)); err == nil {
			t.Fatalf("shards=%d: object one byte over MaxObjectBytes admitted", shards)
		}
		c.Close()
	}
}
