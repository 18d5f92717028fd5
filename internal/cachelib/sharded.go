package cachelib

import (
	"fmt"
	"runtime"
	"sync"

	"nemo/internal/metrics"
)

// ShardedEngine is the hash-partitioned facade: n independent engines, each
// owning a disjoint slice of the cache's capacity (its own zone range, index
// structures, and lock), behind one Engine. Requests route by the
// shard lane of the key fingerprint (ShardOfFP), so requests for different
// shards proceed fully in parallel and every engine of a comparison run
// partitions the key space identically.
//
// Every sharded engine in the repository is one of these: core.Sharded embeds
// it over its Nemo shards, and each baseline package's (logcache, setcache,
// kangaroo, fairywren) NewSharded partitions its zone budget into per-shard
// engines and wraps them here. Batches take one hash pass (PlanFPs), group into
// per-shard sub-batches (GroupByShard), and fan out across shards in
// parallel; Stats sums per-shard counters without a global lock. The
// fan-out composes with whatever read concurrency the shard engine itself
// offers: a sub-batch handed to an engine with a three-phase GetMany
// (core.Cache) overlaps its flash I/O within the shard, on top of the
// cross-shard parallelism added here.
//
// With one shard a ShardedEngine is behaviorally identical to the bare
// engine it wraps: every request routes to shard 0 in the order issued, so
// replay statistics are stat-for-stat those of the unwrapped engine (pinned
// per baseline by the shards=1 equivalence property tests).
type ShardedEngine struct {
	shards []Engine
	n      uint64

	// histMu guards the merged read-latency histogram rebuilt on demand by
	// ReadLatency (the Engine contract returns a pointer).
	histMu sync.Mutex
	hist   metrics.Histogram
}

// The generic facade is an Engine plus the Sharder routing contract the
// parallel replayer partitions work by.
var (
	_ Engine  = (*ShardedEngine)(nil)
	_ Sharder = (*ShardedEngine)(nil)
)

// NewShardedEngine wraps the given per-shard engines (already constructed
// over disjoint capacity partitions) into one sharded facade.
func NewShardedEngine(engines []Engine) (*ShardedEngine, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("cachelib: sharded engine needs at least one shard")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("cachelib: shard %d is nil", i)
		}
	}
	return &ShardedEngine{shards: append([]Engine(nil), engines...), n: uint64(len(engines))}, nil
}

// NewShardedRange partitions the zone range [zoneBase, zoneBase+zones) of
// dev (zones 0 means every zone from zoneBase) into shards equal slices and
// wraps one engine per slice — the shared spine of every baseline's
// NewSharded constructor, so the device check, the divisibility contract
// and the per-shard slicing cannot drift between engine families. Requests
// route by the shared shard lane, so every engine family partitions keys as
// core.Sharded does, and with shards=1 the result behaves exactly like the
// one engine build returns. On a mid-construction failure every already-built
// shard is closed — a half-built facade must not leak shard resources.
// errPrefix names the engine package in the errors.
func NewShardedRange(errPrefix string, dev interface{ Zones() int }, zoneBase, zones, shards int,
	build func(zoneBase, zones int) (Engine, error)) (*ShardedEngine, error) {
	if dev == nil {
		return nil, fmt.Errorf("%s: nil device", errPrefix)
	}
	if zones == 0 {
		zones = dev.Zones() - zoneBase
	}
	if shards < 1 {
		shards = 1
	}
	if zones%shards != 0 {
		return nil, fmt.Errorf("%s: %d zones not divisible by %d shards", errPrefix, zones, shards)
	}
	per := zones / shards
	engines := make([]Engine, shards)
	for i := range engines {
		e, err := build(zoneBase+i*per, per)
		if err != nil {
			for _, built := range engines[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("cachelib: shard %d/%d: %w", i, shards, err)
		}
		engines[i] = e
	}
	return NewShardedEngine(engines)
}

// NumShards implements Sharder.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// ShardOf implements Sharder: replay drivers partition work by this function
// so each shard's request order stays deterministic no matter how many
// workers run.
func (s *ShardedEngine) ShardOf(key []byte) int { return ShardOfKey(key, s.n) }

// Shard returns shard i's engine (tests and diagnostics).
func (s *ShardedEngine) Shard(i int) Engine { return s.shards[i] }

// Name implements Engine, reporting the wrapped design's name ("Log", "Set",
// "KG", "FW") so comparison tables stay labeled by design, not by wrapper.
func (s *ShardedEngine) Name() string { return s.shards[0].Name() }

// Close implements Engine: every shard is closed — all of them, even after a
// failure — and the first error is returned.
func (s *ShardedEngine) Close() error {
	var first error
	for _, e := range s.shards {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Get looks up an object in its owning shard.
func (s *ShardedEngine) Get(key []byte) ([]byte, bool) {
	return s.shards[s.ShardOf(key)].Get(key)
}

// Set inserts or updates an object in its owning shard.
func (s *ShardedEngine) Set(key, value []byte) error {
	return s.shards[s.ShardOf(key)].Set(key, value)
}

// Delete invalidates key in its owning shard.
func (s *ShardedEngine) Delete(key []byte) error {
	return s.shards[s.ShardOf(key)].Delete(key)
}

// SetAsync inserts in the owning shard, deferring the flush if that engine
// can.
func (s *ShardedEngine) SetAsync(key, value []byte) error {
	return s.shards[s.ShardOf(key)].SetAsync(key, value)
}

// Drain implements Engine, waiting out every shard's deferred work.
func (s *ShardedEngine) Drain() error {
	var first error
	for _, e := range s.shards {
		if err := e.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GetMany implements Engine on the generic facade: one hash pass,
// per-shard sub-batches, parallel fan-out. Single-shard batches (a one-key
// GET, or any batch at one shard) skip the grouping and goroutine fan-out
// entirely.
func (s *ShardedEngine) GetMany(keys [][]byte) (values [][]byte, hits []bool) {
	if len(keys) == 0 {
		return make([][]byte, 0), make([]bool, 0)
	}
	scratch := BorrowFPs()
	defer ReturnFPs(scratch)
	fps, first, single := PlanFPs(keys, scratch, s.n)
	if single {
		return s.shards[first].GetMany(keys)
	}
	values = make([][]byte, len(keys))
	hits = make([]bool, len(keys))
	fanOut := runtime.GOMAXPROCS(0) > 1
	var wg sync.WaitGroup
	subs := GroupByShard(fps, keys, nil, len(s.shards))
	defer ReleaseSubBatches(subs)
	for _, sub := range subs {
		scatter := func(sub SubBatch) {
			vs, hs := s.shards[sub.Shard].GetMany(sub.Keys)
			for i, p := range sub.Pos {
				values[p], hits[p] = vs[i], hs[i]
			}
		}
		if !fanOut {
			// A single-P runtime gains nothing from goroutine fan-out;
			// sub-batches still pay one engine call each.
			scatter(sub)
			continue
		}
		wg.Add(1)
		go func(sub SubBatch) {
			defer wg.Done()
			scatter(sub)
		}(sub)
	}
	wg.Wait()
	return values, hits
}

// SetMany implements Engine on the generic facade. Within a shard
// inserts apply in batch order; across shards sub-batches run in parallel
// (keys of different shards never interact). The lowest-numbered shard's
// error is returned first.
func (s *ShardedEngine) SetMany(keys, values [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	scratch := BorrowFPs()
	defer ReturnFPs(scratch)
	fps, first, single := PlanFPs(keys, scratch, s.n)
	if single {
		return s.shards[first].SetMany(keys, values)
	}
	fanOut := runtime.GOMAXPROCS(0) > 1
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	subs := GroupByShard(fps, keys, values, len(s.shards))
	defer ReleaseSubBatches(subs)
	for _, sub := range subs {
		if !fanOut {
			errs[sub.Shard] = s.shards[sub.Shard].SetMany(sub.Keys, sub.Vals)
			continue
		}
		wg.Add(1)
		go func(sub SubBatch) {
			defer wg.Done()
			errs[sub.Shard] = s.shards[sub.Shard].SetMany(sub.Keys, sub.Vals)
		}(sub)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Engine by summing per-shard counters. Each shard is
// sampled under its own lock; no global lock is taken.
func (s *ShardedEngine) Stats() Stats {
	var sum Stats
	for _, e := range s.shards {
		sum = sum.Add(e.Stats())
	}
	return sum
}

// Fields implements Engine: the summed Stats as rows.
func (s *ShardedEngine) Fields() []Field { return s.Stats().Fields() }

// ReadLatency implements Engine: the merged histogram of all shards,
// rebuilt on each call. Like the per-shard histograms it merges, the result
// should be read while the engine is quiescent.
func (s *ShardedEngine) ReadLatency() *metrics.Histogram {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.hist.Reset()
	for _, e := range s.shards {
		s.hist.Merge(e.ReadLatency())
	}
	return &s.hist
}
