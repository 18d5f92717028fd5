package cachelib

import (
	"bytes"
	"fmt"
	"testing"
)

// groupBatch routes n keys (with values when vals is set) over shards and
// checks the grouping against ShardOfKey: every key lands once, in its
// owner's sub-batch, in batch order, with its value and position beside it.
func groupBatch(t *testing.T, n, shards int, vals bool) {
	t.Helper()
	keys := make([][]byte, n)
	var values [][]byte
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", n, i))
		if vals {
			values = append(values, []byte(fmt.Sprintf("val-%d", i)))
		}
	}
	scratch := BorrowFPs()
	defer ReturnFPs(scratch)
	fps, _, _ := PlanFPs(keys, scratch, uint64(shards))
	subs := GroupByShard(fps, keys, values, shards)
	defer ReleaseSubBatches(subs)
	seen, prevShard := 0, -1
	for _, sub := range subs {
		if sub.Shard <= prevShard || len(sub.Keys) == 0 || (sub.Vals != nil) != vals {
			t.Fatalf("n=%d: sub-batch for shard %d after %d, %d keys, vals=%v", n, sub.Shard, prevShard, len(sub.Keys), sub.Vals != nil)
		}
		prevShard = sub.Shard
		prevPos := int32(-1)
		for i, k := range sub.Keys {
			p := sub.Pos[i]
			if p <= prevPos || !bytes.Equal(k, keys[p]) || ShardOfKey(k, uint64(shards)) != sub.Shard {
				t.Fatalf("n=%d shard %d: entry %d is key %q at position %d", n, sub.Shard, i, k, p)
			}
			if vals && !bytes.Equal(sub.Vals[i], values[p]) {
				t.Fatalf("n=%d shard %d: entry %d carries value %q", n, sub.Shard, i, sub.Vals[i])
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
		groupBatch(t, n, 4, n%2 == 0)
		groupBatch(t, n, 48, n%3 == 0)
	}
}

// TestGroupByShardAllocations pins the routing of a steady-state multi-shard
// batch at zero allocations: fingerprints and sub-batches both come from
// pooled scratch.
func TestGroupByShardAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys, values := make([][]byte, 16), make([][]byte, 16)
	for i := range keys {
		keys[i], values[i] = []byte(fmt.Sprintf("key-%d", i)), []byte("v")
	}
	got := testing.AllocsPerRun(200, func() {
		scratch := BorrowFPs()
		fps, _, _ := PlanFPs(keys, scratch, 4)
		ReleaseSubBatches(GroupByShard(fps, keys, values, 4))
		ReturnFPs(scratch)
	})
	if got > 0 {
		t.Fatalf("routing a 16-key batch over 4 shards allocates %.1f times, want 0", got)
	}
}
