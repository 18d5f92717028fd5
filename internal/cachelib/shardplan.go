package cachelib

import (
	"sync"

	"nemo/internal/hashing"
)

// This file is the shard-routing plan of ShardedEngine, the one sharded
// facade in the repository: it fronts Nemo's shards (core.Sharded embeds it)
// and the four baselines alike. Routing by one dedicated hash lane of the
// key fingerprint lands a key on the same shard index in every engine of a
// comparison run — the per-shard request subsequences of a trace are
// identical across engines, which is what makes the cross-engine tables
// comparable.

// shardLane is the hash lane used for shard routing. It is distinct from
// lane 0 (intra-engine set placement) and the Bloom probe streams, so which
// shard a key lands on is uncorrelated with where it lives inside the shard.
const shardLane = 0x53484152 // "SHAR"

// ShardOfKey returns the shard owning key among n shards.
func ShardOfKey(key []byte, n uint64) int {
	if n <= 1 {
		return 0
	}
	return int(hashing.Derive(hashing.Fingerprint(key), shardLane) % n)
}

// routePlan is GetMany's routing of one batch over the shards. Plans are
// pooled, so steady-state batches allocate nothing for routing.
type routePlan struct {
	ints   []int32  // backs each key's shard, then starts, write cursors and pos
	starts []int32  // shard sh's sub-batch is keys[starts[sh]:starts[sh+1]]
	pos    []int32  // each entry's position in the original batch
	keys   [][]byte // the batch in shard order
}

var plans = sync.Pool{New: func() any { return new(routePlan) }}

// route hashes each key of a non-empty batch once. A batch that lands on
// one shard of n (every one-key GET) is reported whole, as that shard, and
// left unsorted; a batch that spans shards is bucketed into per-shard
// sub-batches with a counting sort — one pass to count, one to scatter,
// O(keys + shards) — that keep batch order within each shard.
func (p *routePlan) route(keys [][]byte, n int) (shard int, whole bool) {
	nk := len(keys)
	if need := 2*nk + 2*n + 1; cap(p.ints) < need {
		p.ints = make([]int32, need)
	}
	ints := p.ints[:cap(p.ints)]
	shs, ints := ints[:nk], ints[nk:]
	whole = true
	for i, k := range keys {
		shs[i] = int32(ShardOfKey(k, uint64(n)))
		whole = whole && shs[i] == shs[0]
	}
	if whole {
		return int(shs[0]), true
	}
	starts, ints := ints[:n+1], ints[n+1:]
	write, pos := ints[:n], ints[n:n+nk]
	clear(starts) // starts[sh+1] counts, then prefix-sums
	for _, sh := range shs {
		starts[sh+1]++
	}
	for sh := 0; sh < n; sh++ {
		starts[sh+1] += starts[sh]
	}
	if cap(p.keys) < nk {
		p.keys = make([][]byte, nk)
	}
	p.keys = p.keys[:nk]
	copy(write, starts[:n])
	for i, sh := range shs {
		o := write[sh]
		write[sh] = o + 1
		p.keys[o], pos[o] = keys[i], int32(i)
	}
	p.starts, p.pos = starts, pos
	return 0, false
}

// release drops the plan's key references and returns it to the pool.
func (p *routePlan) release() {
	clear(p.keys)
	plans.Put(p)
}
