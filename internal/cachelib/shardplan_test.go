package cachelib

import (
	"bytes"
	"fmt"
	"testing"
)

// groupBatch routes n keys over shards and checks the grouping against
// ShardOfKey: every key lands once, in its owner's sub-batch, in batch
// order, with its position beside it.
func groupBatch(t *testing.T, n, shards int) {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", n, i))
	}
	scratch := BorrowFPs()
	defer ReturnFPs(scratch)
	fps, _, _ := PlanFPs(keys, scratch, uint64(shards))
	subs := GroupByShard(fps, keys, shards)
	defer ReleaseSubBatches(subs)
	seen, prevShard := 0, -1
	for _, sub := range subs {
		if sub.Shard <= prevShard || len(sub.Keys) == 0 {
			t.Fatalf("n=%d: sub-batch for shard %d after %d, %d keys", n, sub.Shard, prevShard, len(sub.Keys))
		}
		prevShard = sub.Shard
		prevPos := int32(-1)
		for i, k := range sub.Keys {
			p := sub.Pos[i]
			if p <= prevPos || !bytes.Equal(k, keys[p]) || ShardOfKey(k, uint64(shards)) != sub.Shard {
				t.Fatalf("n=%d shard %d: entry %d is key %q at position %d", n, sub.Shard, i, k, p)
			}
			prevPos = p
			seen++
		}
	}
	if seen != n {
		t.Fatalf("n=%d: sub-batches hold %d keys", n, seen)
	}
}

// TestGroupByShardReusesScratch groups batches of varying size and shape
// back to back, so every grouping after the first carves from a recycled
// scratch sized by an earlier one.
func TestGroupByShardReusesScratch(t *testing.T) {
	for _, n := range []int{16, 1, 64, 3, 64, 200, 8} {
		groupBatch(t, n, 4)
		groupBatch(t, n, 48)
	}
}

// TestGroupByShardAllocations pins the routing of a steady-state multi-shard
// batch at zero allocations: fingerprints and sub-batches both come from
// pooled scratch.
func TestGroupByShardAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	got := testing.AllocsPerRun(200, func() {
		scratch := BorrowFPs()
		fps, _, _ := PlanFPs(keys, scratch, 4)
		ReleaseSubBatches(GroupByShard(fps, keys, 4))
		ReturnFPs(scratch)
	})
	if got > 0 {
		t.Fatalf("routing a 16-key batch over 4 shards allocates %.1f times, want 0", got)
	}
}
