package cachelib

import (
	"sync"

	"nemo/internal/metrics"
)

// Adapt upgrades any Engine to the full EngineV2 surface so harness code can
// be written against v2 while the plain baselines keep running unmodified.
// Engines that already implement EngineV2 (core.Cache, core.Sharded) are
// returned as-is; otherwise a shim is returned that:
//
//   - delegates every extension the engine implements natively;
//   - emulates GetMany/SetMany by per-key loops (no batching win, but the
//     same call shape);
//   - emulates Delete with an in-memory tombstone set when the engine has
//     no native Deleter: deleted keys miss on Get until the next Set of the
//     same key clears the tombstone;
//   - emulates SetAsync as a synchronous Set and Drain as a no-op.
//
// The shim forwards Sharder when the underlying engine is sharded, so
// ParallelReplay keeps its deterministic per-shard sequencing through an
// adapted engine.
func Adapt(e Engine) EngineV2 {
	if v2, ok := e.(EngineV2); ok {
		return v2
	}
	a := &Adapted{inner: e}
	a.batch, _ = e.(BatchEngine)
	a.deleter, _ = e.(Deleter)
	a.async, _ = e.(AsyncEngine)
	a.sharder, _ = e.(Sharder)
	if a.deleter == nil {
		a.tombs = make(map[string]struct{})
	}
	return a
}

// Adapted is the shim returned by Adapt for engines that lack part of the
// v2 surface. Safe for concurrent use if the underlying engine is.
type Adapted struct {
	inner   Engine
	batch   BatchEngine
	deleter Deleter
	async   AsyncEngine
	sharder Sharder

	// Tombstone emulation for engines without a native Deleter. tombGets
	// counts lookups answered (as misses) by the tombstone set without
	// reaching the engine, so Stats still accounts one Get per request.
	mu       sync.Mutex
	tombs    map[string]struct{}
	deletes  uint64
	tombGets uint64
}

// Name implements Engine.
func (a *Adapted) Name() string { return a.inner.Name() }

// Close implements Engine.
func (a *Adapted) Close() error { return a.inner.Close() }

// ReadLatency implements Engine.
func (a *Adapted) ReadLatency() *metrics.Histogram { return a.inner.ReadLatency() }

// Stats implements Engine, folding the emulation layer's counters into the
// set: emulated deletes, and the lookups it answered as tombstone misses.
func (a *Adapted) Stats() Stats {
	st := a.inner.Stats()
	a.mu.Lock()
	st.Deletes += a.deletes
	st.Gets += a.tombGets
	a.mu.Unlock()
	return st
}

// tombstoned reports whether key is shadowed by an emulated delete,
// counting the lookup when it is (the engine never sees it).
func (a *Adapted) tombstoned(key []byte) bool {
	if a.tombs == nil {
		return false
	}
	a.mu.Lock()
	_, dead := a.tombs[string(key)]
	if dead {
		a.tombGets++
	}
	a.mu.Unlock()
	return dead
}

// clearTomb forgets an emulated delete (a fresh Set resurrects the key).
func (a *Adapted) clearTomb(key []byte) {
	if a.tombs == nil {
		return
	}
	a.mu.Lock()
	delete(a.tombs, string(key))
	a.mu.Unlock()
}

// Get implements Engine, honoring emulated deletes.
func (a *Adapted) Get(key []byte) ([]byte, bool) {
	if a.tombstoned(key) {
		return nil, false
	}
	return a.inner.Get(key)
}

// Set implements Engine; a successful write clears any emulated tombstone.
func (a *Adapted) Set(key, value []byte) error {
	if err := a.inner.Set(key, value); err != nil {
		return err
	}
	a.clearTomb(key)
	return nil
}

// Delete implements Deleter, natively when possible.
func (a *Adapted) Delete(key []byte) error {
	if a.deleter != nil {
		return a.deleter.Delete(key)
	}
	a.mu.Lock()
	a.tombs[string(key)] = struct{}{}
	a.deletes++
	a.mu.Unlock()
	return nil
}

// GetMany implements BatchEngine, natively when possible.
func (a *Adapted) GetMany(keys [][]byte) (values [][]byte, hits []bool) {
	if a.batch != nil && a.tombs == nil {
		return a.batch.GetMany(keys)
	}
	values = make([][]byte, len(keys))
	hits = make([]bool, len(keys))
	for i, k := range keys {
		values[i], hits[i] = a.Get(k)
	}
	return values, hits
}

// SetMany implements BatchEngine, natively when possible. The per-key
// fallback reproduces the BatchEngine error contract exactly: on a sharded
// engine (Sharder, >1 shard) each shard's sub-sequence applies in batch
// order independently — an error stops only its own shard's remaining
// inserts, the other shards complete, and the first error by shard order is
// returned, matching the native sharded fan-out; single-shard engines keep
// the strict sequential stop-at-first-error semantics. Before this shim
// aggregated per shard, an adapted sharded engine stopped the whole batch
// at the first error in batch order — other shards' keys silently never
// applied, diverging from what the same batch does natively.
func (a *Adapted) SetMany(keys, values [][]byte) error {
	if a.batch != nil && a.tombs == nil {
		return a.batch.SetMany(keys, values)
	}
	n := 1
	if a.sharder != nil {
		n = a.sharder.NumShards()
	}
	if n <= 1 {
		for i := range keys {
			if err := a.Set(keys[i], values[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	for i := range keys {
		s := a.sharder.ShardOf(keys[i])
		if errs[s] != nil {
			continue // this shard's sub-batch already stopped
		}
		errs[s] = a.Set(keys[i], values[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetAsync implements AsyncEngine; without native support the write is
// synchronous, which preserves semantics (Drain is then trivially a no-op).
func (a *Adapted) SetAsync(key, value []byte) error {
	if a.async != nil {
		if err := a.async.SetAsync(key, value); err != nil {
			return err
		}
		a.clearTomb(key)
		return nil
	}
	return a.Set(key, value)
}

// Drain implements AsyncEngine.
func (a *Adapted) Drain() error {
	if a.async != nil {
		return a.async.Drain()
	}
	return nil
}

// NumShards implements Sharder, forwarding the underlying partitioning (or
// the trivial single-shard one, which matches ParallelReplay's default).
func (a *Adapted) NumShards() int {
	if a.sharder != nil {
		return a.sharder.NumShards()
	}
	return 1
}

// ShardOf implements Sharder.
func (a *Adapted) ShardOf(key []byte) int {
	if a.sharder != nil {
		return a.sharder.ShardOf(key)
	}
	return 0
}

var (
	_ EngineV2 = (*Adapted)(nil)
	_ Sharder  = (*Adapted)(nil)
)
