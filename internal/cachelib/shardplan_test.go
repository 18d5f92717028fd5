package cachelib

import (
	"bytes"
	"fmt"
	"testing"
)

// routeBatch routes n keys over shards and checks the plan against
// ShardOfKey: a batch reported whole has every key on the reported shard;
// otherwise every key lands once, in its owner's sub-batch, in batch order,
// with its position beside it.
func routeBatch(t *testing.T, n, shards int) {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", n, i))
	}
	p := plans.Get().(*routePlan)
	defer p.release()
	if sh, whole := p.route(keys, shards); whole {
		for _, k := range keys {
			if ShardOfKey(k, uint64(shards)) != sh {
				t.Fatalf("n=%d: batch reported whole on shard %d holds key %q of another", n, sh, k)
			}
		}
		return
	}
	seen := 0
	for sh := 0; sh < shards; sh++ {
		prevPos := int32(-1)
		for i := p.starts[sh]; i < p.starts[sh+1]; i++ {
			k, q := p.keys[i], p.pos[i]
			if q <= prevPos || !bytes.Equal(k, keys[q]) || ShardOfKey(k, uint64(shards)) != sh {
				t.Fatalf("n=%d shard %d: entry %d is key %q at position %d", n, sh, i, k, q)
			}
			prevPos = q
			seen++
		}
	}
	if seen != n {
		t.Fatalf("n=%d: sub-batches hold %d keys", n, seen)
	}
}

// TestRoutePlanReusesScratch routes batches of varying size and shape back
// to back, so every route after the first carves from a recycled plan sized
// by an earlier one.
func TestRoutePlanReusesScratch(t *testing.T) {
	for _, n := range []int{16, 1, 64, 3, 64, 200, 8} {
		routeBatch(t, n, 4)
		routeBatch(t, n, 48)
		routeBatch(t, n, 1)
	}
}

// TestRoutePlanAllocations pins the routing of a steady-state multi-shard
// batch at zero allocations: the plan and its scratch come from the pool.
func TestRoutePlanAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	got := testing.AllocsPerRun(200, func() {
		p := plans.Get().(*routePlan)
		if _, whole := p.route(keys, 4); whole {
			t.Fatal("16 keys over 4 shards routed whole")
		}
		p.release()
	})
	if got > 0 {
		t.Fatalf("routing a 16-key batch over 4 shards allocates %.1f times, want 0", got)
	}
}
