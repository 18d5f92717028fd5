package nemo_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"nemo"
)

// replayDataZones mirrors cmd/nemobench's -compare geometry: the total SG
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

func replayTrace(t testing.TB, ops int) []nemo.Request {
	t.Helper()
	probe := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64})
	dataBytes := int64(replayDataZones*probe.PagesPerZone()) * int64(probe.PageSize())
	stream, err := nemo.NewWorkload(dataBytes*3/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return nemo.Materialize(stream, ops)
}

// TestParallelReplayMatchesSequential pins the parallel driver itself: with
// one shard and one worker it must produce exactly the statistics of a plain
// sequential demand-fill replay of the same trace on the unsharded engine.
func TestParallelReplayMatchesSequential(t *testing.T) {
	reqs := replayTrace(t, 60_000)

	seqDev := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64,
		Zones: replayDataZones + nemo.IndexZonesFor(replayDataZones, 50)})
	seq, err := nemo.New(nemo.DefaultConfig(seqDev, replayDataZones))
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if _, hit := seq.Get(reqs[i].Key); !hit {
			if err := seq.Set(reqs[i].Key, reqs[i].Value); err != nil {
				t.Fatal(err)
			}
		}
	}

	par := buildShardedReplayCache(t, 1)
	res, err := nemo.ParallelReplay(par, reqs, nemo.ParallelReplayConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != seq.Stats() {
		t.Fatalf("parallel driver diverged from sequential replay:\nparallel:   %+v\nsequential: %+v",
			res.Final, seq.Stats())
	}
	if got, want := par.PaperWA(), seq.PaperWA(); got != want {
		t.Fatalf("paper WA diverged: %v vs %v", got, want)
	}
}

// TestParallelReplayDeterministicAcrossWorkers checks the driver's core
// guarantee: per-shard sequencing makes hit ratio and write amplification
// independent of how many workers replay the trace — unbatched and batched
// alike (batches are composed per shard, so batch boundaries cannot depend
// on the worker count either).
func TestParallelReplayDeterministicAcrossWorkers(t *testing.T) {
	reqs := replayTrace(t, 60_000)
	for _, batch := range []int{0, 16} {
		var ref nemo.Stats
		for i, workers := range []int{1, 2, 8} {
			c := buildShardedReplayCache(t, 8)
			res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{Workers: workers, BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res.Final
				continue
			}
			if res.Final != ref {
				t.Fatalf("batch=%d workers=%d changed replay stats:\ngot: %+v\nref: %+v",
					batch, workers, res.Final, ref)
			}
		}
	}
}

// TestParallelReplayDeterministicAcrossBatchSizes pins the batched
// replay against the unbatched driver: per-shard batching with exact
// duplicate handling (repeats replay serially after the batch's fills)
// keeps hit ratio and write amplification — every write-side and hit-side
// counter — identical at every batch size on this trace. Only the flash
// read traffic may drift fractionally: delaying a fill to the end of its
// batch can shift which PBFG/candidate reads a neighboring lookup needs.
func TestParallelReplayDeterministicAcrossBatchSizes(t *testing.T) {
	reqs := replayTrace(t, 60_000)
	var ref nemo.Stats
	var refWA float64
	run := func(batch int) (nemo.Stats, float64) {
		c := buildShardedReplayCache(t, 8)
		res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final, c.PaperWA()
	}
	ref, refWA = run(0)
	for _, batch := range []int{1, 8, 64} {
		got, gotWA := run(batch)
		if rel := math.Abs(float64(got.FlashBytesRead)-float64(ref.FlashBytesRead)) / float64(ref.FlashBytesRead); rel > 0.01 {
			t.Fatalf("batch=%d moved flash read traffic by %.2f%%", batch, rel*100)
		}
		// Read traffic aside, the counter sets must match exactly.
		got.FlashBytesRead, got.FlashReadOps = ref.FlashBytesRead, ref.FlashReadOps
		if got != ref {
			t.Fatalf("batch=%d changed replay stats:\ngot: %+v\nref: %+v", batch, got, ref)
		}
		// Paper WA's denominator is accounted per flushed SG, and batching
		// may shift a fill across a flush boundary, so it is pinned to a
		// 0.1% band rather than bit-exactly (ALWA, computed from the
		// exactly-equal counters above, is already pinned exactly).
		if math.Abs(gotWA-refWA)/refWA > 1e-3 {
			t.Fatalf("batch=%d changed paper WA: %v vs %v", batch, gotWA, refWA)
		}
	}
	// Past production batch depths (256 ≫ the 64-op norm) eviction timing
	// may shift individual op outcomes; hit ratio and WA stay pinned to a
	// 0.1% band.
	got, gotWA := run(256)
	if d := math.Abs(got.MissRatio() - ref.MissRatio()); d > 1e-3 {
		t.Fatalf("batch=256 moved miss ratio by %.5f", d)
	}
	if math.Abs(gotWA-refWA)/refWA > 1e-3 {
		t.Fatalf("batch=256 changed paper WA: %v vs %v", gotWA, refWA)
	}
}

// TestParallelReplayMixedTraceDeterministic drives the whole of
// Engine — batched mixed GET/SET/DELETE replay against the sharded engine
// — and pins worker-count independence of the final statistics.
func TestParallelReplayMixedTraceDeterministic(t *testing.T) {
	probe := nemo.NewDevice(nemo.DeviceConfig{PagesPerZone: 64})
	dataBytes := int64(replayDataZones*probe.PagesPerZone()) * int64(probe.PageSize())
	base, err := nemo.NewWorkload(dataBytes*3/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := nemo.NewMixedStream(base, 0.1, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := nemo.Materialize(mixed, 60_000)
	var ref nemo.Stats
	for i, workers := range []int{1, 4, 8} {
		c := buildShardedReplayCache(t, 8)
		res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{Workers: workers, BatchSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Final
			if ref.Deletes == 0 {
				t.Fatal("mixed trace produced no deletes")
			}
			continue
		}
		if res.Final != ref {
			t.Fatalf("workers=%d changed mixed replay stats:\ngot: %+v\nref: %+v", workers, res.Final, ref)
		}
	}
}

// TestParallelReplayAsyncFlush exercises the background flush pipeline end
// to end: fills routed through SetAsync with a flusher pool must preserve
// cache quality within tolerance while recording write latencies.
func TestParallelReplayAsyncFlush(t *testing.T) {
	reqs := replayTrace(t, 60_000)

	syncC := buildShardedReplayCache(t, 8)
	syncRes, err := nemo.ParallelReplay(syncC, reqs, nemo.ParallelReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}

	asyncC := buildShardedAsyncReplayCache(t, 8, 2)
	defer asyncC.Close()
	asyncRes, err := nemo.ParallelReplay(asyncC, reqs, nemo.ParallelReplayConfig{AsyncSets: true})
	if err != nil {
		t.Fatal(err)
	}
	syncHit := 1 - syncRes.Final.MissRatio()
	asyncHit := 1 - asyncRes.Final.MissRatio()
	if d := math.Abs(syncHit - asyncHit); d > 0.03 {
		t.Fatalf("async fills moved hit ratio by %.4f (sync %.4f, async %.4f)", d, syncHit, asyncHit)
	}
	if asyncRes.SetLatency.Count == 0 {
		t.Fatal("async replay recorded no Set latencies")
	}
	if syncRes.SetLatency.Count == 0 {
		t.Fatal("sync replay recorded no Set latencies")
	}
}

// TestAsyncFlushBeatsInlineP99 is the write-pipeline headline (and the
// closeout of ROADMAP's "measure the async p99 win" item): with the
// three-phase flush protocol the background flusher's build-phase I/O runs
// off both the inserting worker AND the shard lock, so an async-flush
// replay's p99 Set latency must beat the inline-flush replay of the same
// trace. Like every wall-clock pin, the assertion self-gates on hosts that
// can physically show it (≥ 8 schedulable CPUs, no race detector) — on
// smaller hosts the flushers share cores with the inserting workers and
// the tail improvement is hidden (though in practice it shows even there).
func TestAsyncFlushBeatsInlineP99(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping wall-clock latency assertion under -race")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("skipping async-p99 assertion on %d CPUs: flushers cannot overlap the workers", runtime.NumCPU())
	}
	reqs := replayTrace(t, 200_000)
	run := func(async bool) time.Duration {
		var c *nemo.ShardedCache
		if async {
			c = buildShardedAsyncReplayCache(t, 8, 2)
		} else {
			c = buildShardedReplayCache(t, 8)
		}
		defer c.Close()
		res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{AsyncSets: async})
		if err != nil {
			t.Fatal(err)
		}
		return res.SetLatency.P99
	}
	// Best of two per mode damps scheduler noise on loaded hosts (the
	// sibling wall-clock pins use the same trick).
	best := func(async bool) time.Duration {
		a, b := run(async), run(async)
		if b < a {
			return b
		}
		return a
	}
	syncP99, asyncP99 := best(false), best(true)
	t.Logf("set p99: inline=%v async=%v on %d CPUs", syncP99, asyncP99, runtime.NumCPU())
	if asyncP99 >= syncP99 {
		t.Fatalf("async-flush p99 Set latency %v did not beat inline-flush %v", asyncP99, syncP99)
	}
}

// TestShardedReplayThroughputAndQuality is the headline scaling check: on
// the same trace, the 8-shard engine must sustain at least 3× the ops/s of
// the 1-shard configuration while reporting equivalent aggregate hit ratio
// and write amplification. The speedup has two stacked sources: each shard
// scans an 8× smaller PBFG index per Get (~1.2× even on one core), and
// shards proceed under independent locks on independent cores. The quality
// assertions always run; the wall-clock ratio is asserted only where it is
// physically attainable — ≥ 8 schedulable CPUs and no race detector (whose
// instrumentation distorts wall-clock ratios).
func TestShardedReplayThroughputAndQuality(t *testing.T) {
	reqs := replayTrace(t, 150_000)

	run := func(shards int) (opsPerSec, hitRatio, wa float64) {
		c := buildShardedReplayCache(t, shards)
		res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec, 1 - res.Final.MissRatio(), c.PaperWA()
	}

	// Quality must be equivalent regardless of host speed, so these
	// assertions always run.
	ops1, hit1, wa1 := run(1)
	ops8, hit8, wa8 := run(8)
	t.Logf("shards=1: %.0f ops/s hit=%.4f WA=%.4f", ops1, hit1, wa1)
	t.Logf("shards=8: %.0f ops/s hit=%.4f WA=%.4f", ops8, hit8, wa8)
	if d := math.Abs(hit1 - hit8); d > 0.02 {
		t.Fatalf("hit ratios diverged by %.4f (1-shard %.4f vs 8-shard %.4f)", d, hit1, hit8)
	}
	if d := math.Abs(wa1 - wa8); d > 0.2 {
		t.Fatalf("write amplification diverged by %.3f (1-shard %.3f vs 8-shard %.3f)", d, wa1, wa8)
	}

	speedup := ops8 / ops1
	t.Logf("8-shard speedup: %.2f× on %d CPUs", speedup, runtime.NumCPU())
	if raceEnabled {
		t.Skip("skipping wall-clock speedup assertion under -race")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("skipping ≥3× speedup assertion on %d CPUs: 8 shards cannot run in parallel", runtime.NumCPU())
	}
	if speedup < 3 {
		// One retry damps scheduler noise on loaded hosts.
		ops1b, _, _ := run(1)
		ops8b, _, _ := run(8)
		if retry := ops8b / ops1b; retry > speedup {
			speedup = retry
		}
	}
	if speedup < 3 {
		t.Fatalf("8-shard engine sustained only %.2f× the 1-shard throughput, want ≥ 3×", speedup)
	}
}

// TestBatchedReplayThroughput asserts batched replay's
// headline: batched replay sustains at least the unbatched throughput. The
// structural win is the merged multi-shard GetMany fan-out — a worker that
// owns several shards gets cross-shard parallelism from single calls — so
// the comparison runs with fewer workers than shards. Like the ≥3× sharding
// assertion above, the wall-clock claim is only asserted where it is
// physically attainable: ≥ 8 schedulable CPUs and no race detector. On
// smaller hosts batching is bookkeeping with nothing to parallelize, and
// the quality equivalence (which always holds) is pinned by
// TestParallelReplayDeterministicAcrossBatchSizes.
func TestBatchedReplayThroughput(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping wall-clock assertion under -race")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("skipping batched-throughput assertion on %d CPUs: the fan-out cannot run in parallel", runtime.NumCPU())
	}
	reqs := replayTrace(t, 150_000)
	run := func(batch int) float64 {
		c := buildShardedReplayCache(t, 8)
		res, err := nemo.ParallelReplay(c, reqs, nemo.ParallelReplayConfig{Workers: 2, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec
	}
	best := func(batch int) float64 {
		a, b := run(batch), run(batch)
		if b > a {
			return b
		}
		return a
	}
	unbatched := best(0)
	batched := best(64)
	t.Logf("workers=2 shards=8: unbatched %.0f ops/s, batch=64 %.0f ops/s (%.2f×)",
		unbatched, batched, batched/unbatched)
	if batched < unbatched {
		t.Fatalf("batched replay (%.0f ops/s) slower than unbatched (%.0f ops/s)", batched, unbatched)
	}
}

// shardCountsForBench are the configurations BenchmarkParallelReplay sweeps.
var shardCountsForBench = []int{1, 2, 4, 8}

// BenchmarkParallelReplay replays the same materialized trace against the
// sharded engine at several shard counts — plus batched and async-flush
// variants at 8 shards — reporting wall-clock throughput next to the
// paper's quality metrics (run with -bench ParallelReplay).
func BenchmarkParallelReplay(b *testing.B) {
	reqs := replayTrace(b, 150_000)
	bench := func(name string, mk func(testing.TB) *nemo.ShardedCache, cfg nemo.ParallelReplayConfig) {
		b.Run(name, func(b *testing.B) {
			var opsPerSec, hit, wa float64
			var setP99 time.Duration
			for i := 0; i < b.N; i++ {
				c := mk(b)
				res, err := nemo.ParallelReplay(c, reqs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				opsPerSec += res.OpsPerSec
				hit = 1 - res.Final.MissRatio()
				wa = c.PaperWA()
				setP99 = res.SetLatency.P99
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(opsPerSec/float64(b.N), "ops/s")
			b.ReportMetric(hit*100, "hit%")
			b.ReportMetric(wa, "WA")
			b.ReportMetric(float64(setP99.Nanoseconds()), "setp99-ns")
		})
	}
	for _, shards := range shardCountsForBench {
		shards := shards
		bench(fmt.Sprintf("shards=%d", shards),
			func(tb testing.TB) *nemo.ShardedCache { return buildShardedReplayCache(tb, shards) },
			nemo.ParallelReplayConfig{})
	}
	bench("shards=8/batch=64",
		func(tb testing.TB) *nemo.ShardedCache { return buildShardedReplayCache(tb, 8) },
		nemo.ParallelReplayConfig{BatchSize: 64})
	bench("shards=8/async",
		func(tb testing.TB) *nemo.ShardedCache { return buildShardedAsyncReplayCache(tb, 8, 2) },
		nemo.ParallelReplayConfig{AsyncSets: true})
}
