package cachelib

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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
// guarantee to mixed GET/SET/DELETE replay: with one goroutine per shard,
// each shard sees its requests in trace order, so the statistics equal a
// serial Replay's of the same trace, which is one worker for every shard.
func TestParallelReplayMixedDeterministicAcrossWorkers(t *testing.T) {
	mixed := func() trace.Stream {
		m, err := trace.NewMixed(testStream(), 0.15, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const ops = 6_000
	reqs := trace.Materialize(mixed(), ops)
	// shardedFake partitions the fake engine 4 ways so the replay runs
	// several goroutines with distinct work.
	serial, err := Replay(newShardedFake(4), mixed(), ReplayConfig{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Final.Deletes == 0 {
		t.Fatal("mixed replay issued no deletes")
	}
	for run := 0; run < 3; run++ {
		st, err := ParallelReplay(newShardedFake(4), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if st != serial.Final {
			t.Fatalf("run %d: parallel stats diverged from the serial replay:\ngot: %+v\nref: %+v", run, st, serial.Final)
		}
	}
	// A failing request names its shard and where in the trace it was.
	failKey := reqs[len(reqs)/2].Key
	first := 0
	for string(reqs[first].Key) != string(failKey) || reqs[first].Op == trace.KindDelete {
		first++
	}
	e := newShardedFake(4)
	e.failKey = string(failKey)
	_, err = ParallelReplay(e, reqs)
	if err == nil {
		t.Fatal("replay succeeded with a refusing engine")
	}
	var shard, at int
	if n, _ := fmt.Sscanf(err.Error(), "cachelib: shard %d at op %d: fake: set refused", &shard, &at); n != 2 {
		t.Fatalf("error %q does not say where", err)
	}
	if shard != e.ShardOf(failKey) || at != first {
		t.Fatalf("error %q, want shard %d at op %d", err, e.ShardOf(failKey), first)
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
func (s *shardedFake) Close() error { return nil }

var (
	_ Engine  = (*shardedFake)(nil)
	_ Sharder = (*shardedFake)(nil)
)
