package cachelib

import (
	"fmt"
	"sync"

	"nemo/internal/trace"
)

// Sharder is implemented by engines that partition the key space into
// independent shards (core.Sharded). ParallelReplay drives each shard from
// its own goroutine, which keeps every shard's request order the trace's.
type Sharder interface {
	// NumShards returns the number of independent partitions.
	NumShards() int
	// ShardOf returns the partition owning key.
	ShardOf(key []byte) int
}

// dispatch executes one request: a delete, a set, or a get-and-fill. It is
// the one definition of "replay one request" — Replay and ParallelReplay
// both go through it — and reports whether a GET hit. Every write, an
// explicit SET or a GET's demand fill, is one SetAsync, so the engine's own
// configuration (core.Config.Flushers) alone decides whether its flush runs
// on the replaying goroutine or on a flusher pool.
func dispatch(e Engine, req *trace.Request) (hit bool, err error) {
	switch req.Op {
	case trace.KindDelete:
		return false, e.Delete(req.Key)
	case trace.KindSet:
		return false, e.SetAsync(req.Key, req.Value)
	default:
		if _, hit := e.Get(req.Key); hit {
			return true, nil
		}
		return false, e.SetAsync(req.Key, req.Value)
	}
}

// ParallelReplay replays a materialized trace against the engine with one
// goroutine per shard, one engine call per request (GET with demand fill —
// the look-aside pattern of Replay — plus explicit SET and DELETE). Each
// goroutine issues its shard's requests in trace order, so every shard
// observes exactly the request subsequence a serial Replay of the same
// trace would give it: per-shard cache state, and with it the aggregate hit
// ratio and write amplification, is Replay's and independent of goroutine
// scheduling (for an engine that flushes inline; a flusher pool's timing is
// its own). An engine that does not implement Sharder is one shard,
// replayed in trace order.
//
// The replay drains the engine before it reads the final statistics, which
// it returns even when a request failed; the error names the failing
// request's shard and op index. The replayer measures no wall-clock time;
// benchmark/ does.
func ParallelReplay(e Engine, reqs []trace.Request) (Stats, error) {
	shards := 1
	shardOf := func([]byte) int { return 0 }
	if sh, ok := e.(Sharder); ok {
		shards = sh.NumShards()
		shardOf = sh.ShardOf
	}
	// Each shard's request indices, in trace order, so a goroutine touches
	// only its own work instead of rescanning the whole trace.
	work := make([][]int32, shards)
	for i := range reqs {
		s := shardOf(reqs[i].Key)
		work[s] = append(work[s], int32(i))
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s, list := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range list {
				if _, err := dispatch(e, &reqs[i]); err != nil {
					errs[s] = fmt.Errorf("cachelib: shard %d at op %d: %w", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Deferred flushes must land before the statistics are read.
	drainErr := e.Drain()
	st := e.Stats()
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, drainErr
}
