package core

import "nemo/internal/cachelib"

// This file implements cachelib.Engine's batched read natively on Cache: a
// GetMany costs one plan and one commit lock acquisition instead of one
// pair per key. Sharded gets its GetMany from the embedded
// cachelib.ShardedEngine, which hashes each key once to route it, groups
// the keys into per-shard sub-batches and fans them out in parallel to the
// shards' GetMany here, which fingerprints each key again. SetMany, on Cache and Sharded alike, is the embedded
// cachelib.PerKey's: the batch's Sets in order, stopping at the first error.

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
