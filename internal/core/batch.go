package core

import (
	"nemo/internal/cachelib"
	"nemo/internal/hashing"
)

// This file implements cachelib.Engine's batch calls natively on Cache: a
// batch costs one lock acquisition instead of one per operation. Sharded
// gets its batch calls from the embedded cachelib.ShardedEngine, which
// hashes once to route, groups keys into per-shard sub-batches and fans them
// out in parallel to the shards' GetMany/SetMany here — the per-shard
// request order is preserved, so within every shard a batch behaves exactly
// like the equivalent op sequence.

// Interface conformance.
var (
	_ cachelib.Engine  = (*Cache)(nil)
	_ cachelib.Engine  = (*Sharded)(nil)
	_ cachelib.Sharder = (*Sharded)(nil)
)

// GetMany implements cachelib.Engine with the three-phase read
// protocol (getBatch, readpath.go): one locked plan pass over all keys, one
// unlocked flash I/O pass that overlaps the batch's reads on the device
// channels, one locked commit pass. values[i] is a fresh copy (nil on
// miss), hits[i] the presence flag.
func (c *Cache) GetMany(keys [][]byte) (values [][]byte, hits []bool) {
	values = make([][]byte, len(keys))
	hits = make([]bool, len(keys))
	sc := c.borrowScratch()
	defer c.returnScratch(sc)
	c.getBatch(sc, keys)
	for j := range keys {
		values[j], hits[j] = sc.outcome(j)
	}
	return values, hits
}

// SetMany implements cachelib.Engine: all inserts execute in order
// under one lock acquisition, with effects identical to sequential Sets
// (including trigger-driven inline flushes). The first error aborts the
// remainder of the batch.
func (c *Cache) SetMany(keys, values [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range keys {
		if err := c.setLocked(hashing.Fingerprint(keys[i]), keys[i], values[i], false); err != nil {
			return err
		}
	}
	return nil
}
