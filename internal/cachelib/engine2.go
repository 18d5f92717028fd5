package cachelib

import "time"

// This file defines Engine v2: the composable extension interfaces layered
// on the minimal Engine core, plus the per-request Options the replayers
// thread through every engine. The design mirrors production flash caches
// (CacheLib, Flashield-style pipelines): a bare Get/Set contract for
// interchangeability, with batching, deletion, and asynchronous admission as
// optional capabilities an engine may implement natively. Engines that do
// not are upgraded by Adapt, so every harness path can be written against
// the v2 surface while the four baselines keep running unmodified.
//
// The op vocabulary of a mixed GET/SET/DELETE workload is trace.Kind,
// carried on every trace.Request — there is deliberately no second enum
// here.

// Hint biases admission for one request, overriding the replay-level policy.
type Hint uint8

const (
	// HintDefault defers to the configured admission policy.
	HintDefault Hint = iota
	// HintForce admits the fill unconditionally, bypassing the policy
	// (production caches pin known-hot keys this way).
	HintForce
	// HintBypass never fills: the object is served if cached but a miss is
	// not written back to flash (read-through of cold scans).
	HintBypass
)

// Options carries the per-request knobs of Engine v2. The zero value means
// "behave exactly like the v1 path": no TTL, policy-driven admission,
// demand-fill on miss.
type Options struct {
	// TTL is the object's time-to-live on the replay's virtual clock; zero
	// means no expiry. Expiry is enforced by the replay harness (which owns
	// the clock): a GET past the deadline deletes the object and counts as
	// a miss. Engines therefore need no per-object timestamp metadata —
	// matching Nemo, whose FIFO pool is its only aging mechanism. A TTL
	// needs the serial replayer and its Clock: Replay rejects a TTL without
	// a Clock, and ParallelReplay, which advances no clock, rejects any.
	TTL time.Duration
	// Admission biases the fill decision for this request.
	Admission Hint
	// NoFill suppresses demand-fill on miss regardless of admission.
	NoFill bool
}

// BatchEngine is implemented by engines that execute many operations per
// lock acquisition. Batches group keys by shard internally: a sharded
// implementation performs one hash pass, builds per-shard sub-batches, and
// fans them out in parallel, so an N-op batch costs one lock round-trip per
// touched shard instead of N.
type BatchEngine interface {
	// GetMany looks up keys[i] for every i, returning parallel slices:
	// values[i] is a fresh copy (nil on miss) and hits[i] reports presence.
	GetMany(keys [][]byte) (values [][]byte, hits []bool)
	// SetMany inserts keys[i] → values[i]. Within each shard the inserts
	// apply in batch order with effects identical to sequential Sets
	// (repeated keys included: the later write wins); across shards the
	// sub-batches run independently, so on error some sub-batches may have
	// completed while others did not — the first error by shard order is
	// returned. Single-shard engines degrade to the strict sequential
	// semantics, stopping at the first error.
	SetMany(keys, values [][]byte) error
}

// Deleter is implemented by engines that can invalidate a key. Log-indexed
// engines drop the exact index entry; Nemo, which deliberately has no exact
// index, tombstones: in-memory copies are removed and a tombstone entry
// shadows any still-cached flash copy until it ages out of the FIFO pool.
type Deleter interface {
	// Delete invalidates key: a subsequent Get misses as long as the
	// deletion is still remembered (exactly for indexed engines, for the
	// tombstone's cache lifetime for Nemo).
	Delete(key []byte) error
}

// AsyncEngine is implemented by engines whose writes can complete off the
// caller's critical path. For Nemo, SetAsync inserts into the in-memory SG
// and returns; when the rear-full trigger fires, the full SG's flush is
// handed to a background flusher pool instead of running inline on the
// inserting goroutine — the flush is the p99 outlier of the Set path.
type AsyncEngine interface {
	// SetAsync inserts like Set but never flushes inline. Errors from
	// deferred flushes surface on a later call, on Drain, or on Close.
	SetAsync(key, value []byte) error
	// Drain blocks until all deferred work has reached flash, returning
	// the first deferred error. After Drain, Stats reflects every SetAsync.
	Drain() error
}

// EngineV2 is the full production surface: the minimal core plus all three
// extensions. core.Cache and core.Sharded implement it natively; Adapt
// upgrades any plain Engine.
type EngineV2 interface {
	Engine
	BatchEngine
	Deleter
	AsyncEngine
}
