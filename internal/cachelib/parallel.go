package cachelib

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nemo/internal/trace"
)

// Sharder is implemented by engines that partition the key space into
// independent shards (core.Sharded). ParallelReplay uses it to keep every
// shard's request order deterministic regardless of worker count.
type Sharder interface {
	// NumShards returns the number of independent partitions.
	NumShards() int
	// ShardOf returns the partition owning key.
	ShardOf(key []byte) int
}

// ParallelReplayConfig controls a ParallelReplay run.
type ParallelReplayConfig struct {
	// Workers is the number of replay goroutines (default: the engine's
	// shard count, or 1 for unsharded engines). Workers beyond the shard
	// count are clamped — a shard is only ever driven by one goroutine.
	Workers int
	// BatchSize groups requests into per-shard batches of up to this many
	// operations: a GET run goes through one GetMany (one lock acquisition
	// per batch). Batches are formed per shard, so batch composition — and
	// therefore the replay's statistics — is independent of the worker
	// count. Within a GET run only a key's first occurrence is batched;
	// repeats replay serially after the run's fills, which reproduces the
	// sequential Get-after-fill outcome. 0 or 1 replays unbatched.
	BatchSize int
}

// ParallelReplayResult is what one parallel replay leaves behind: the
// engine's shard count and its final statistics. The replayer measures no
// wall-clock time; benchmark/ does.
type ParallelReplayResult struct {
	Shards int
	Final  Stats
}

// replayWorker carries one worker goroutine's state through a replay. Every
// write — an explicit SET or a GET's demand fill — is one SetAsync, so the
// engine's own configuration (core.Config.Flushers) alone decides whether
// its flush runs on the worker or on a flusher pool.
type replayWorker struct {
	e    Engine
	reqs []trace.Request

	// Reused batch scratch (the batching layer must stay cheap relative to
	// the per-op engine work it amortizes).
	keyBuf  [][]byte
	sigBuf  []uint64
	uniqIdx []int32
	dupIdx  []int32
}

// dispatchOne executes one request: a delete, a set, or a get-and-fill. It
// is the one definition of "replay one request" — the serial replayer
// dispatches through it too — and reports whether a GET hit.
func (rw *replayWorker) dispatchOne(req *trace.Request) (hit bool, err error) {
	switch req.Op {
	case trace.KindDelete:
		return false, rw.e.Delete(req.Key)
	case trace.KindSet:
		return false, rw.e.SetAsync(req.Key, req.Value)
	default:
		if _, hit := rw.e.Get(req.Key); hit {
			return true, nil
		}
		return false, rw.e.SetAsync(req.Key, req.Value)
	}
}

// runBatch executes one per-shard batch: requests are split into maximal
// same-kind runs executed in order, so within the shard the batch has the
// same effect ordering as the sequential op stream — GET runs go through
// GetMany, their fills and SET runs one SetAsync per key, deletions one by
// one. Within a GET run, only the first occurrence of each key is batched;
// repeat occurrences (constant on hot-key-heavy Zipf traces) are replayed
// serially after the fills, which reproduces the sequential Get-after-fill
// outcome exactly instead of double-missing.
func (rw *replayWorker) runBatch(idx []int32) error {
	for lo := 0; lo < len(idx); {
		kind := rw.reqs[idx[lo]].Op
		hi := lo + 1
		for hi < len(idx) && rw.reqs[idx[hi]].Op == kind {
			hi++
		}
		run := idx[lo:hi]
		switch kind {
		case trace.KindDelete:
			for _, i := range run {
				if err := rw.e.Delete(rw.reqs[i].Key); err != nil {
					return err
				}
			}
		case trace.KindSet:
			for _, i := range run {
				if err := rw.e.SetAsync(rw.reqs[i].Key, rw.reqs[i].Value); err != nil {
					return err
				}
			}
		default: // GET run: batched lookup, then the demand fills.
			if err := rw.getPhase(run); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// ParallelReplay replays a materialized trace against the engine from many
// goroutines, dispatching each request by its op kind (GET with demand
// fill — the same look-aside pattern as Replay — plus explicit SET and
// DELETE). Work is partitioned by the engine's shard function: worker w
// handles exactly the shards s with s mod Workers == w, and scans the trace
// in order, so each shard observes the identical request subsequence it
// would see in a single-threaded replay. Per-shard cache state — and
// therefore aggregate hit ratio and write amplification — is deterministic
// and independent of Workers and goroutine scheduling.
//
// With BatchSize > 1, requests are grouped into per-shard batches whose GET
// runs go through the engine's GetMany; because batches are formed per
// shard (not per worker), batch composition is also independent of the
// worker count.
//
// Every write is a SetAsync, and the replay drains the engine before it
// reads the final statistics: an engine without a flusher pool has flushed
// inline, one with a pool has its deferred flushes land first.
//
// Engines that do not implement Sharder are driven by a single worker (the
// trace order is then the sequential order, preserving exact equivalence
// with Replay's stats).
func ParallelReplay(e Engine, reqs []trace.Request, cfg ParallelReplayConfig) (ParallelReplayResult, error) {
	shards := 1
	shardOf := func([]byte) int { return 0 }
	if sh, ok := e.(Sharder); ok {
		shards = sh.NumShards()
		shardOf = sh.ShardOf
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = shards
	}
	if workers > shards {
		workers = shards
	}

	// Precompute each worker's request indices once (in trace order) so
	// replay loops touch only their own work instead of rescanning and
	// skipping the whole trace per worker. Batched runs also remember the
	// shard of every request so routing never re-hashes a key.
	workLists := make([][]int32, workers)
	var shardIdx []int32
	if cfg.BatchSize > 1 {
		shardIdx = make([]int32, len(reqs))
	}
	for i := range reqs {
		s := shardOf(reqs[i].Key)
		if shardIdx != nil {
			shardIdx[i] = int32(s)
		}
		w := s % workers
		workLists[w] = append(workLists[w], int32(i))
	}

	res := ParallelReplayResult{Shards: shards}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rw := &replayWorker{e: e, reqs: reqs}
			if cfg.BatchSize > 1 {
				if err := rw.runBatched(workLists[w], shards, shardIdx, cfg.BatchSize); err != nil {
					errs[w] = fmt.Errorf("cachelib: worker %d %w", w, err)
				}
				return
			}
			for _, i := range workLists[w] {
				if _, err := rw.dispatchOne(&reqs[i]); err != nil {
					errs[w] = fmt.Errorf("cachelib: worker %d at op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Deferred flushes must land before the statistics are read.
	drainErr := e.Drain()
	res.Final = e.Stats()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, drainErr
}

// getPhase executes one GET run as one batched lookup plus its demand
// fills. Only the first occurrence of each key within the run is
// batched; repeat occurrences (constant on hot-key-heavy Zipf traces) are
// replayed serially after the fills, which reproduces the sequential
// Get-after-fill outcome exactly instead of double-missing. Effect order:
// uniques in run order, then fills in the same order, then repeats in run
// order.
func (rw *replayWorker) getPhase(run []int32) error {
	keys := rw.keyBuf[:0]  // first occurrence of each key, in order
	uniq := rw.uniqIdx[:0] // their request indices
	dups := rw.dupIdx[:0]  // repeat occurrences, in order
	sigs := rw.sigBuf[:0]  // key signatures
	// Linear signature scans are fastest at production batch depths; past
	// that the quadratic cost would swamp the engine work, so large runs
	// switch to a set.
	var sigSet map[uint64]struct{}
	if len(run) > 128 {
		sigSet = make(map[uint64]struct{}, len(run))
	}
	for _, i := range run {
		req := &rw.reqs[i]
		sig := dupSig(req.Key)
		isDup := false
		if sigSet != nil {
			_, isDup = sigSet[sig]
			sigSet[sig] = struct{}{}
		} else {
			for _, s := range sigs {
				if s == sig {
					isDup = true
					break
				}
			}
		}
		if isDup {
			// A signature collision between distinct keys only diverts an
			// op to the (exact) serial path below.
			dups = append(dups, i)
			continue
		}
		sigs = append(sigs, sig)
		keys = append(keys, req.Key)
		uniq = append(uniq, i)
	}
	rw.keyBuf, rw.uniqIdx, rw.dupIdx, rw.sigBuf = keys[:0], uniq[:0], dups[:0], sigs[:0]
	_, hits := rw.e.GetMany(keys)
	for j, i := range uniq {
		if !hits[j] {
			if err := rw.e.SetAsync(rw.reqs[i].Key, rw.reqs[i].Value); err != nil {
				return err
			}
		}
	}
	for _, i := range dups {
		if _, err := rw.dispatchOne(&rw.reqs[i]); err != nil {
			return err
		}
	}
	return nil
}

// dupSig is the cheap per-key signature used for within-run repeat
// detection: length plus first and last words, mixed. Equal keys always
// produce equal signatures (so every real repeat is caught — the
// correctness requirement); a collision between different keys merely
// diverts an op to the exact serial path, which is harmless.
func dupSig(k []byte) uint64 {
	var a, b uint64
	if n := len(k); n >= 8 {
		a = binary.LittleEndian.Uint64(k)
		b = binary.LittleEndian.Uint64(k[n-8:])
	} else {
		for _, c := range k {
			a = a<<8 | uint64(c)
		}
	}
	return a ^ b<<1 ^ uint64(len(k))<<56
}

// runBatched drives one worker's shards with per-shard batching: pending
// requests accumulate per shard and run through runBatch when BatchSize of
// them are waiting, the remainders at end of trace in shard order. Batch
// composition depends only on each shard's request subsequence (consecutive
// BatchSize-chunks), never on the worker count. An error comes back as
// "at op N: …", N being the first op index of the batch that failed.
func (rw *replayWorker) runBatched(workList []int32, shards int, shardIdx []int32, batchSize int) error {
	pend := make([][]int32, shards)
	flush := func(s int) error {
		b := pend[s]
		pend[s] = b[:0]
		if len(b) == 0 {
			return nil
		}
		if err := rw.runBatch(b); err != nil {
			return fmt.Errorf("at op %d: %w", b[0], err)
		}
		return nil
	}
	for _, i := range workList {
		s := int(shardIdx[i])
		pend[s] = append(pend[s], i)
		if len(pend[s]) >= batchSize {
			if err := flush(s); err != nil {
				return err
			}
		}
	}
	for s := range pend {
		if err := flush(s); err != nil {
			return err
		}
	}
	return nil
}
