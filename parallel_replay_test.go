package nemo_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nemo"
)

// replayDataZones mirrors `nemobench compare`'s geometry: the total SG
// pool is constant across shard counts so hit ratio and write amplification
// stay comparable while partitioning changes.
const replayDataZones = 48

func buildShardedReplayCache(t testing.TB, shards int) *nemo.ShardedCache {
	t.Helper()
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: nemo.DeviceZonesFor(replayDataZones, shards)})
	cfg := nemo.DefaultConfig(dev, replayDataZones)
	cfg.Shards = shards
	c, err := nemo.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildShardedAsyncReplayCache(t testing.TB, shards, flushers int) *nemo.ShardedCache {
	t.Helper()
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: nemo.DeviceZonesFor(replayDataZones, shards)})
	cfg := nemo.DefaultConfig(dev, replayDataZones)
	cfg.Shards = shards
	cfg.Flushers = flushers
	c, err := nemo.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayStream is the demand-fill workload the replay tests share: the
// same seed, so every call yields the same requests.
func replayStream(t testing.TB) nemo.Stream {
	t.Helper()
	probe := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64})
	dataBytes := int64(replayDataZones*probe.PagesPerZone()) * int64(probe.PageSize())
	stream, err := nemo.NewWorkload(dataBytes*3/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func replayTrace(t testing.TB, ops int) []nemo.Request {
	t.Helper()
	return nemo.Materialize(replayStream(t), ops)
}

// mixedReplayStream rewrites replayStream into 10% SETs and 5% DELETEs.
func mixedReplayStream(t testing.TB) nemo.Stream {
	t.Helper()
	mixed, err := nemo.NewMixedStream(replayStream(t), 0.1, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	return mixed
}

// matchSerialReplay replays ops requests of the stream mk builds through
// the serial Replay on one cache and, materialized, through ParallelReplay
// on another of the same shape, and requires the same final statistics and
// paper WA. It returns the serial replay's statistics.
func matchSerialReplay(t *testing.T, shards, ops int, mk func(testing.TB) nemo.Stream) nemo.Stats {
	t.Helper()
	seq := buildShardedReplayCache(t, shards)
	res, err := nemo.Replay(seq, mk(t), nemo.ReplayConfig{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	par := buildShardedReplayCache(t, shards)
	st, err := nemo.ParallelReplay(par, nemo.Materialize(mk(t), ops))
	if err != nil {
		t.Fatal(err)
	}
	if st != res.Final {
		t.Fatalf("shards=%d: parallel replay diverged from the serial Replay:\nparallel: %+v\nserial:   %+v",
			shards, st, res.Final)
	}
	if got, want := par.Readout().PaperWA(), seq.Readout().PaperWA(); got != want {
		t.Fatalf("shards=%d: paper WA diverged: %v vs %v", shards, got, want)
	}
	return st
}

// TestParallelReplayMatchesSequential pins the parallel driver against the
// serial Replay on the same trace: with one shard the driver is one
// goroutine issuing the trace in order, and with eight each shard's
// goroutine issues that shard's requests in trace order, which is all a
// shard sees of the serial replay.
func TestParallelReplayMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		matchSerialReplay(t, shards, 60_000, replayStream)
	}
}

// TestParallelReplayDeterministicAcrossWorkers checks the driver's core
// guarantee: per-shard sequencing makes hit ratio and write amplification
// independent of how the eight per-shard goroutines are scheduled. A run
// at GOMAXPROCS 1, where they take turns, equals one at the machine's
// GOMAXPROCS, where they run side by side.
func TestParallelReplayDeterministicAcrossWorkers(t *testing.T) {
	reqs := replayTrace(t, 60_000)
	run := func(procs int) nemo.Stats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		st, err := nemo.ParallelReplay(buildShardedReplayCache(t, 8), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if one, all := run(1), run(runtime.GOMAXPROCS(0)); one != all {
		t.Fatalf("GOMAXPROCS changed replay stats:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=%d: %+v", one, runtime.GOMAXPROCS(0), all)
	}
}

// TestParallelReplayMixedTraceDeterministic drives the whole request mix —
// GET with demand fill, SET and DELETE — through the sharded engine and
// pins the parallel replay to the serial one.
func TestParallelReplayMixedTraceDeterministic(t *testing.T) {
	if st := matchSerialReplay(t, 8, 60_000, mixedReplayStream); st.Deletes == 0 {
		t.Fatal("mixed trace produced no deletes")
	}
}

// TestParallelReplayAsyncFlush exercises the background flush pipeline end
// to end: the replayer's SetAsync fills on an engine with a flusher pool
// must all land and preserve cache quality within tolerance.
func TestParallelReplayAsyncFlush(t *testing.T) {
	reqs := replayTrace(t, 60_000)

	syncC := buildShardedReplayCache(t, 8)
	syncSt, err := nemo.ParallelReplay(syncC, reqs)
	if err != nil {
		t.Fatal(err)
	}

	asyncC := buildShardedAsyncReplayCache(t, 8, 2)
	defer asyncC.Close()
	asyncSt, err := nemo.ParallelReplay(asyncC, reqs)
	if err != nil {
		t.Fatal(err)
	}
	syncHit := 1 - syncSt.MissRatio()
	asyncHit := 1 - asyncSt.MissRatio()
	if d := math.Abs(syncHit - asyncHit); d > 0.03 {
		t.Fatalf("async fills moved hit ratio by %.4f (sync %.4f, async %.4f)", d, syncHit, asyncHit)
	}
	// Every miss is filled once, sync or async: the drained engine counts
	// as many Sets as its replay had misses.
	for name, st := range map[string]nemo.Stats{"sync": syncSt, "async": asyncSt} {
		if misses := st.Gets - st.Hits; st.Sets == 0 || st.Sets != misses {
			t.Fatalf("%s replay: %d Sets for %d misses", name, st.Sets, misses)
		}
	}
}

// TestParkedFlushHoldsUpNothing is what the async-flush p99 and the ≥ 3×
// sharding speedup stood for, checked without a stopwatch. One shard's
// deferred flush is parked inside its first device append, on the flusher
// goroutine that runs it, and while it sits there:
//
//   - SetAsync on that same shard keeps returning — the inserting goroutine
//     neither runs the flush (it would be the one parked) nor waits for it,
//     which is why the async pipeline's Set tail beats the inline one's;
//   - every other shard serves a Set, an in-memory Get, an inline flush and a
//     flash-served Get — shards share no lock, which is why throughput
//     scales with them.
//
// Were either to wait for the parked flush, the flush waits for the test to
// release it: the watchdog is that deadlock's way out.
func TestParkedFlushHoldsUpNothing(t *testing.T) {
	const shards, victim = 8, 5
	perData := replayDataZones / shards
	perShard := perData + nemo.IndexZonesFor(perData, 50)
	dev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64, Zones: nemo.DeviceZonesFor(replayDataZones, shards)})
	cfg := nemo.DefaultConfig(dev, replayDataZones)
	cfg.Shards = shards
	cfg.Flushers = 2
	c, err := nemo.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dev.SetWriteFault(func(zone int) error {
		if zone/perShard == victim { // only the victim's one flush owner gets here
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return nil
	})
	defer dev.SetWriteFault(nil)

	// keyFor returns the next key of the sequence that routes to the shard.
	next := 0
	keyFor := func(shard int) []byte {
		for {
			k := []byte(fmt.Sprintf("parked-key-%08d-padpad", next))
			next++
			if c.ShardOf(k) == shard {
				return k
			}
		}
	}
	value := []byte("parked-value-payload-payload-payload-payload")

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			// Fill the victim through SetAsync until its flush is queued on
			// the pool: once FlushThreshold objects are sacrificed at the
			// latest (the rear-full trigger may queue it sooner, and a
			// flusher on another P may already have parked it). Stop there
			// and wait for the flush to park. Filling on while it still sits
			// in the queue, as a single-P runtime allows, would sacrifice up
			// to the backpressure bound, where the engine flushes inline as
			// documented: on this goroutine, which would park in its place.
		fill:
			for c.Shard(victim).Readout().Sacrificed < uint64(cfg.FlushThreshold) {
				if err := c.SetAsync(keyFor(victim), value); err != nil {
					return err
				}
				select {
				case <-parked:
					break fill
				default:
				}
			}
			<-parked
			// The fresh rear the seal rotated in has the room.
			for i := 0; i < 100; i++ {
				if err := c.SetAsync(keyFor(victim), value); err != nil {
					return err
				}
			}
			for i := 0; i < shards; i++ {
				if i == victim {
					continue
				}
				k := keyFor(i)
				if err := c.Set(k, value); err != nil {
					return err
				}
				if _, hit := c.Get(k); !hit {
					return fmt.Errorf("shard %d: in-memory Get missed beside the parked flush", i)
				}
				reads := c.Stats().FlashReadOps
				if err := c.Shard(i).Flush(); err != nil {
					return err
				}
				if v, hit := c.Get(k); !hit || string(v) != string(value) || c.Stats().FlashReadOps == reads {
					return fmt.Errorf("shard %d: flash-served Get after an inline flush: hit=%v, %q", i, hit, v)
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
		select {
		case <-parked:
		default:
			t.Error("the victim's flush never reached the device")
		}
	case <-time.After(30 * time.Second):
		t.Error("requests waited for another goroutine's parked flush")
	}
	close(release)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedReplayQuality: on the same trace the 8-shard engine reports
// hit ratio and write amplification equivalent to the 1-shard
// configuration's — partitioning the pool changes where objects live, not
// how many are kept or what they cost to write.
func TestShardedReplayQuality(t *testing.T) {
	reqs := replayTrace(t, 150_000)
	run := func(shards int) (hitRatio, wa float64) {
		c := buildShardedReplayCache(t, shards)
		st, err := nemo.ParallelReplay(c, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - st.MissRatio(), c.Readout().PaperWA()
	}
	hit1, wa1 := run(1)
	hit8, wa8 := run(8)
	t.Logf("shards=1: hit=%.4f WA=%.4f; shards=8: hit=%.4f WA=%.4f", hit1, wa1, hit8, wa8)
	if d := math.Abs(hit1 - hit8); d > 0.02 {
		t.Fatalf("hit ratios diverged by %.4f (1-shard %.4f vs 8-shard %.4f)", d, hit1, hit8)
	}
	if d := math.Abs(wa1 - wa8); d > 0.2 {
		t.Fatalf("write amplification diverged by %.3f (1-shard %.3f vs 8-shard %.3f)", d, wa1, wa8)
	}
}

// TestGetManyFansOutAcrossShards is what the batched-replay throughput
// assertion stood for: a GetMany spanning several shards runs its per-shard
// sub-batches concurrently, so one caller gets cross-shard parallelism from
// one call. The first device read of the batch — whichever shard's it is —
// is parked, and the other shards' sub-batches must still reach the device
// while it sits there; run one after another, they would wait for it.
// (That GetMany answers as serial Gets do, through flush and eviction, is
// pinned by TestShardedBatchMatchesSerial and TestGetManyMatchesSerialGets
// in internal/core.)
func TestGetManyFansOutAcrossShards(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("the facade runs sub-batches inline on a single-P runtime")
	}
	const shards = 8
	c, dev, keys := buildParallelGetCache(t, shards)
	defer c.Close()

	// At eight shards the fixture's keys fit the in-memory SGs; push both
	// of every shard's to flash, then take one flash-served key from each.
	for i := 0; i < 2; i++ {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([][]byte, shards)
	found := 0
	for _, k := range keys {
		if i := c.ShardOf(k); batch[i] == nil {
			before := c.Stats().FlashReadOps
			if _, hit := c.Get(k); hit && c.Stats().FlashReadOps > before {
				batch[i] = k
				if found++; found == shards {
					break
				}
			}
		}
	}
	if found < shards {
		t.Fatalf("fixture has flash-served keys on %d of %d shards", found, shards)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	others := make(chan int, 16*shards) // room for every read of the batch, false positives included
	pagesPerShard := dev.PagesPerZone() * nemo.DeviceZonesFor(parallelGetZones, shards) / shards
	var first atomic.Bool
	dev.SetReadFault(func(page int) error {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		} else {
			others <- page / pagesPerShard
		}
		return nil
	})
	defer dev.SetReadFault(nil)
	hits := make(chan []bool, 1)
	go func() {
		_, h := c.GetMany(batch)
		hits <- h
	}()
	watchdog := time.After(30 * time.Second)
	seen := map[int]bool{}
	for len(seen) < shards-1 {
		select {
		case i := <-others:
			seen[i] = true
		case <-watchdog:
			close(release)
			t.Fatalf("%d of %d other shards read flash while one shard's read was parked: sub-batches run one after another", len(seen), shards-1)
		}
	}
	<-parked
	close(release)
	for i, hit := range <-hits {
		if !hit {
			t.Errorf("key of shard %d missed", i)
		}
	}
}
