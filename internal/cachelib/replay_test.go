package cachelib

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nemo/internal/metrics"
	"nemo/internal/trace"
)

// TestReplayMixedOps drives a SET/DELETE-bearing trace through the serial
// replayer against the fake engine.
func TestReplayMixedOps(t *testing.T) {
	mixed, err := trace.NewMixed(testStream(), 0.2, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := newFake()
	res, err := Replay(e, mixed, ReplayConfig{Ops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Final
	if st.Deletes == 0 {
		t.Fatal("mixed replay issued no deletes")
	}
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatalf("mixed replay op mix degenerate: %+v", st)
	}
	// GETs are ~70% of ops; explicit SETs and fills make up the Sets.
	if st.Gets+st.Deletes > 10_000 {
		t.Fatalf("op accounting exceeds trace length: %+v", st)
	}
}

// TestParallelReplayMixedDeterministicAcrossWorkers extends the determinism
// guarantee to batched mixed GET/SET/DELETE replay: per-shard sequencing
// and per-shard batch composition make the statistics independent of the
// worker count.
func TestParallelReplayMixedDeterministicAcrossWorkers(t *testing.T) {
	base, err := trace.NewMixed(testStream(), 0.15, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Materialize(base, 6_000)
	// shardedFake partitions the fake engine 4 ways so several workers
	// have distinct work.
	mk := func() *shardedFake { return newShardedFake(4) }
	var ref Stats
	for i, workers := range []int{1, 2, 4} {
		e := mk()
		res, err := ParallelReplay(e, reqs, ParallelReplayConfig{Workers: workers, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Final
			if ref.Deletes == 0 {
				t.Fatal("mixed replay issued no deletes")
			}
			continue
		}
		if res.Final != ref {
			t.Fatalf("workers=%d: mixed batched stats diverged:\ngot: %+v\nref: %+v", workers, res.Final, ref)
		}
	}
	// A failing request names its worker and where in the trace it was:
	// the op itself unbatched, its batch's first op batched.
	failKey := reqs[len(reqs)/2].Key
	first := 0
	for string(reqs[first].Key) != string(failKey) || reqs[first].Op == trace.KindDelete {
		first++
	}
	for _, batch := range []int{0, 16} {
		e := mk()
		e.failKey = string(failKey)
		_, err := ParallelReplay(e, reqs, ParallelReplayConfig{Workers: 2, BatchSize: batch})
		var w, at int
		if err == nil {
			t.Fatalf("batch=%d: replay succeeded with a refusing engine", batch)
		}
		if n, _ := fmt.Sscanf(err.Error(), "cachelib: worker %d at op %d: fake: set refused", &w, &at); n != 2 {
			t.Fatalf("batch=%d: error %q does not say where", batch, err)
		}
		if w != e.ShardOf(failKey)%2 || at > first || (batch == 0 && at != first) || e.ShardOf(reqs[at].Key)%2 != w {
			t.Fatalf("batch=%d: error %q, want worker %d at (a batch starting at or before) op %d",
				batch, err, e.ShardOf(failKey)%2, first)
		}
	}
}

// shardedFake is a hash-partitioned fakeEngine implementing Sharder, for
// exercising the parallel replayer without the full core. Sets of failKey
// are refused.
type shardedFake struct {
	PerKey
	shards  []*lockedFake
	failKey string
}

type lockedFake struct {
	mu sync.Mutex
	fakeEngine
}

func newShardedFake(n int) *shardedFake {
	s := &shardedFake{shards: make([]*lockedFake, n)}
	s.PerKey = PerKeyOver(s)
	for i := range s.shards {
		s.shards[i] = &lockedFake{fakeEngine: fakeEngine{m: make(map[string][]byte)}}
	}
	return s
}

func (s *shardedFake) NumShards() int { return len(s.shards) }
func (s *shardedFake) ShardOf(key []byte) int {
	h := uint64(1469598103934665603)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(len(s.shards)))
}

func (s *shardedFake) Name() string { return "shardedFake" }
func (s *shardedFake) Get(key []byte) ([]byte, bool) {
	f := s.shards[s.ShardOf(key)]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fakeEngine.Get(key)
}
func (s *shardedFake) Set(key, value []byte) error {
	if string(key) == s.failKey {
		return errors.New("fake: set refused")
	}
	f := s.shards[s.ShardOf(key)]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fakeEngine.Set(key, value)
}
func (s *shardedFake) Delete(key []byte) error {
	f := s.shards[s.ShardOf(key)]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fakeEngine.Delete(key)
}
func (s *shardedFake) Stats() Stats {
	var sum Stats
	for _, f := range s.shards {
		f.mu.Lock()
		sum = sum.Add(f.st)
		f.mu.Unlock()
	}
	return sum
}
func (s *shardedFake) ReadLatency() *metrics.Histogram { return &s.shards[0].hist }
func (s *shardedFake) Close() error                    { return nil }

var (
	_ Engine  = (*shardedFake)(nil)
	_ Sharder = (*shardedFake)(nil)
)
