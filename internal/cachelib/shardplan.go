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

// ShardLane is the hash lane used for shard routing. It is distinct from
// lane 0 (intra-engine set placement) and the Bloom probe streams, so which
// shard a key lands on is uncorrelated with where it lives inside the shard.
const ShardLane = 0x53484152 // "SHAR"

// ShardOfFP returns the shard owning an already-computed key fingerprint
// among n shards.
func ShardOfFP(fp uint64, n uint64) int {
	if n <= 1 {
		return 0
	}
	return int(hashing.Derive(fp, ShardLane) % n)
}

// ShardOfKey returns the shard owning key among n shards.
func ShardOfKey(key []byte, n uint64) int {
	return ShardOfFP(hashing.Fingerprint(key), n)
}

// fpScratch pools the per-batch fingerprint buffers so steady-state batched
// traffic allocates nothing for routing (batches are short when traces are
// hot-key heavy, so per-batch allocations would dominate the amortization).
var fpScratch = sync.Pool{New: func() any { return new([]uint64) }}

// BorrowFPs returns a pooled fingerprint buffer for PlanFPs; pair with
// ReturnFPs once the plan's slices are no longer referenced.
func BorrowFPs() *[]uint64 { return fpScratch.Get().(*[]uint64) }

// ReturnFPs gives a buffer obtained from BorrowFPs back to the pool.
func ReturnFPs(b *[]uint64) { fpScratch.Put(b) }

// PlanFPs hashes every key exactly once for routing (GroupByShard reuses the
// fingerprints) and reports whether the whole batch lands on one shard of n
// (always so for a one-key GET), returning that shard's index. The returned slice aliases *scratch.
func PlanFPs(keys [][]byte, scratch *[]uint64, n uint64) (fps []uint64, first int, single bool) {
	fps = (*scratch)[:0]
	single = true
	for i, k := range keys {
		fp := hashing.Fingerprint(k)
		fps = append(fps, fp)
		sh := ShardOfFP(fp, n)
		if i == 0 {
			first = sh
		} else if sh != first {
			single = false
		}
	}
	*scratch = fps
	return fps, first, single
}

// SubBatch is one shard's slice of a grouped batch. All sub-batches of one
// grouping carve their slices from one pooled scratch, so steady-state
// multi-shard batches allocate nothing for routing; they are valid until the
// grouping is handed to ReleaseSubBatches.
type SubBatch struct {
	Shard int
	Keys  [][]byte
	Pos   []int32 // original batch positions

	scratch *groupScratch
}

// groupScratch backs one GroupByShard result.
type groupScratch struct {
	ints []int32  // shard of each key | per-shard starts | write cursors | positions
	keys [][]byte // in shard order
	subs []SubBatch
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// ReleaseSubBatches returns a GroupByShard result's scratch to the pool once
// no sub-batch of it is referenced any more, dropping the key references it
// held.
func ReleaseSubBatches(subs []SubBatch) {
	if len(subs) == 0 {
		return
	}
	gs := subs[0].scratch
	clear(gs.keys)
	clear(gs.subs)
	groupPool.Put(gs)
}

// GroupByShard buckets a fingerprinted batch into per-shard sub-batches with
// a counting sort: one pass to count, one to scatter — O(keys + shards), not
// O(keys × shards). Pair with ReleaseSubBatches.
func GroupByShard(fps []uint64, keys [][]byte, nShards int) []SubBatch {
	n, nk := uint64(nShards), len(keys)
	gs := groupPool.Get().(*groupScratch)
	if need := 2*nk + 2*nShards + 1; cap(gs.ints) < need {
		gs.ints = make([]int32, need)
	}
	if cap(gs.keys) < nk {
		gs.keys = make([][]byte, nk)
	}
	ints := gs.ints[:cap(gs.ints)]
	shs, ints := ints[:nk], ints[nk:]
	bPos, ints := ints[:nk], ints[nk:]
	starts, write := ints[:nShards+1], ints[nShards+1:2*nShards+1]
	clear(starts) // starts[sh+1] counts, then prefix-sums
	for i, fp := range fps {
		sh := int32(ShardOfFP(fp, n))
		shs[i] = sh
		starts[sh+1]++
	}
	for sh := 0; sh < nShards; sh++ {
		starts[sh+1] += starts[sh]
	}
	bKeys := gs.keys[:nk]
	copy(write, starts[:nShards])
	for i := range keys {
		sh := shs[i]
		o := write[sh]
		write[sh] = o + 1
		bKeys[o], bPos[o] = keys[i], int32(i)
	}
	subs := gs.subs[:0]
	for sh := 0; sh < nShards; sh++ {
		lo, hi := starts[sh], starts[sh+1]
		if lo == hi {
			continue
		}
		subs = append(subs, SubBatch{Shard: sh, Keys: bKeys[lo:hi], Pos: bPos[lo:hi], scratch: gs})
	}
	gs.subs = subs
	return subs
}
